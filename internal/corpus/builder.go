package corpus

import (
	"fmt"
	"sort"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
	"fragdroid/internal/manifest"
	"fragdroid/internal/sensitive"
	"fragdroid/internal/smali"
)

// lname lowercases a simple class name for use in resource identifiers.
func lname(name string) string { return strings.ToLower(name) }

// Ref builders shared between the generator, the tests, and the evaluation
// harness (so they can address generated widgets symbolically). They take
// names already lower-cased: the generator lowers each name once per build
// (generator.low), the exported helpers below lower their arguments.
func refRoot(act string) string              { return "@id/" + act + "_root" }
func refNavButton(from, to string) string    { return "@id/" + from + "_btn_" + to }
func refActionButton(from, to string) string { return "@id/" + from + "_act_" + to }
func refInput(from, to string) string        { return "@id/" + from + "_input_" + to }
func refDrawer(act string) string            { return "@id/" + act + "_drawer" }
func refDrawerToggle(act string) string      { return "@id/" + act + "_drawer_toggle" }
func refSlideDrawer(act string) string       { return "@id/" + act + "_slide" }
func refMenuButton(from, to string) string   { return "@id/" + from + "_menu_" + to }
func refSlideMenuButton(from, to string) string {
	return "@id/" + from + "_smenu_" + to
}
func refMenuFragButton(act, frag string) string {
	return "@id/" + act + "_menu_f_" + frag
}
func refSlideMenuFragButton(act, frag string) string {
	return "@id/" + act + "_smenu_f_" + frag
}
func refTabButton(act, frag string) string { return "@id/" + act + "_tab_" + frag }
func refContainer(act string) string       { return "@id/" + act + "_container" }
func refStaticFrag(act, frag string) string {
	return "@id/" + act + "_sfrag_" + frag
}
func refFragRoot(frag string) string         { return "@id/" + frag + "_root" }
func refFragLabel(frag string) string        { return "@id/" + frag + "_label" }
func refSwitchButton(from, to string) string { return "@id/" + from + "_sw_" + to }

// Exported ref helpers for harness code.
//
// NavButtonRef addresses the visible button for a TransButton transition;
// InputRef the gate field of a gated transition; DrawerToggleRef the drawer
// toggle; TabButtonRef the tab of a WireTxnButton wire; ContainerRef the
// fragment container of an activity; SwitchButtonRef the F→F switch button.
func NavButtonRef(from, to string) string    { return refNavButton(lname(from), lname(to)) }
func InputRef(from, to string) string        { return refInput(lname(from), lname(to)) }
func DrawerToggleRef(act string) string      { return refDrawerToggle(lname(act)) }
func MenuButtonRef(from, to string) string   { return refMenuButton(lname(from), lname(to)) }
func TabButtonRef(act, frag string) string   { return refTabButton(lname(act), lname(frag)) }
func ContainerRef(act string) string         { return refContainer(lname(act)) }
func SwitchButtonRef(from, to string) string { return refSwitchButton(lname(from), lname(to)) }
func MenuFragButtonRef(act, frag string) string {
	return refMenuFragButton(lname(act), lname(frag))
}

// handlerGo and friends name generated handler methods.
func handlerGo(to string) string     { return "onGo" + to }
func handlerAct(to string) string    { return "onAct" + to }
func handlerShow(frag string) string { return "onShow" + frag }
func handlerSwitch(to string) string { return "onSw" + to }

const handlerToggleDrawer = "onToggleDrawer"

// defaultGateValue is the expected input when a gate omits Expected.
func defaultGateValue(to string) string { return "letmein-" + lname(to) }

// GateValue exposes the default gate value for harness input files.
func GateValue(g *InputGate, to string) string {
	if g != nil && g.Expected != "" {
		return g.Expected
	}
	return defaultGateValue(to)
}

// BuildArchive generates the .sapk archive for a spec.
func BuildArchive(spec *AppSpec) (*apk.Archive, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := newGenerator(spec)
	p, err := g.build()
	if err != nil {
		return nil, fmt.Errorf("corpus: build %s: %w", spec.Package, err)
	}
	arch, err := p.encode()
	if err != nil {
		return nil, fmt.Errorf("corpus: build %s: %w", spec.Package, err)
	}
	if spec.Packed {
		arch.MarkPacked()
	}
	return arch, nil
}

// BuildApp generates the app and assembles it directly from the in-memory
// parts — no serialize-then-reparse round trip through the archive text.
// apk.Assemble runs the same registration, validation, and lint steps as
// apk.Load, so the resulting App is indistinguishable from the archive path
// (TestBuildAppMatchesArchiveRoundTrip holds both paths together). Packed
// specs fail with apk.ErrPacked, as they would in the real pipeline.
func BuildApp(spec *AppSpec) (*apk.App, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Packed {
		return nil, apk.ErrPacked
	}
	g := newGenerator(spec)
	p, err := g.build()
	if err != nil {
		return nil, fmt.Errorf("corpus: build %s: %w", spec.Package, err)
	}
	app, err := apk.Assemble(p.manifest, p.layouts, p.classes)
	if err != nil {
		return nil, fmt.Errorf("corpus: build %s: %w", spec.Package, err)
	}
	return app, nil
}

// parts is the in-memory form of a generated app: the decoded artifacts that
// encode() serializes into a .sapk and apk.Assemble consumes directly.
type parts struct {
	manifest *manifest.Manifest
	layouts  []*layout.Layout
	classes  []*smali.Class
}

// encode serializes the parts through the real encoders into an archive.
func (p *parts) encode() (*apk.Archive, error) {
	arch := apk.NewArchive()
	data, err := p.manifest.Encode()
	if err != nil {
		return nil, err
	}
	if err := arch.Put(apk.ManifestPath, data); err != nil {
		return nil, err
	}
	for _, l := range p.layouts {
		if err := putLayout(arch, l); err != nil {
			return nil, err
		}
	}
	for _, c := range p.classes {
		if err := putClass(arch, c); err != nil {
			return nil, err
		}
	}
	return arch, nil
}

// generator turns one spec into the parts of its app. It is built once per
// build (newGenerator) and derives what every activity consults more than
// once up front: each name's lower-cased form, and each activity's outgoing
// transitions.
type generator struct {
	spec *AppSpec
	// lower maps each activity and fragment name to strings.ToLower of it;
	// resource names and refs are built from these.
	lower map[string]string
	// out[i] holds the transitions leaving spec.Activities[i], in spec
	// order.
	out [][]Transition
}

// publicAccess is the access-flag list of every generated class and method.
// All of them share this one read-only slice.
var publicAccess = []string{"public"}

func newGenerator(spec *AppSpec) *generator {
	g := &generator{
		spec:  spec,
		lower: make(map[string]string, len(spec.Activities)+len(spec.Fragments)),
		out:   make([][]Transition, len(spec.Activities)),
	}
	for _, f := range spec.Fragments {
		g.lower[f.Name] = strings.ToLower(f.Name)
	}
	// Each activity's run of transitions is cut from one backing array,
	// with cap = len so no run can grow into its neighbour.
	backing := make([]Transition, 0, len(spec.Transition))
	for i, a := range spec.Activities {
		g.lower[a.Name] = strings.ToLower(a.Name)
		start := len(backing)
		for _, tr := range spec.Transition {
			if tr.From == a.Name {
				backing = append(backing, tr)
			}
		}
		g.out[i] = backing[start:len(backing):len(backing)]
	}
	return g
}

func (g *generator) fq(name string) string { return g.spec.Package + "." + name }

// low returns the lower-cased name, computed once per generator. Names the
// spec does not declare (none reach here after Validate) are lowered on the
// fly.
func (g *generator) low(name string) string {
	if l, ok := g.lower[name]; ok {
		return l
	}
	return lname(name)
}

// gateField is the input field guarding a gated transition from act.
func (g *generator) gateField(act string, tr Transition) string {
	if tr.Gate.Field != "" {
		return tr.Gate.Field
	}
	return refInput(g.low(act), g.low(tr.To))
}

// switchesFrom returns the F→F switches leaving a fragment.
func (g *generator) switchesFrom(frag string) []FragmentSwitch {
	var out []FragmentSwitch
	for _, sw := range g.spec.Switches {
		if sw.From == frag {
			out = append(out, sw)
		}
	}
	return out
}

// hostOf returns the first activity wiring the fragment.
func (g *generator) hostOf(frag string) (string, bool) {
	for _, a := range g.spec.Activities {
		for _, w := range a.Wires {
			if w.Fragment == frag {
				return a.Name, true
			}
		}
	}
	return "", false
}

func (g *generator) build() (*parts, error) {
	p := &parts{
		manifest: g.buildManifest(),
		layouts:  make([]*layout.Layout, 0, len(g.spec.Activities)+len(g.spec.Fragments)),
		classes:  make([]*smali.Class, 0, len(g.spec.Activities)+len(g.spec.Fragments)+len(g.spec.Receivers)),
	}
	for i := range g.spec.Activities {
		a := &g.spec.Activities[i]
		l, err := g.activityLayout(a, g.out[i])
		if err != nil {
			return nil, err
		}
		p.layouts = append(p.layouts, l)
		p.classes = append(p.classes, g.activityClass(a, g.out[i]))
	}
	for i := range g.spec.Fragments {
		f := &g.spec.Fragments[i]
		l, err := g.fragmentLayout(f)
		if err != nil {
			return nil, err
		}
		p.layouts = append(p.layouts, l)
		p.classes = append(p.classes, g.fragmentClass(f))
	}
	for i := range g.spec.Receivers {
		p.classes = append(p.classes, g.receiverClass(&g.spec.Receivers[i]))
	}
	return p, nil
}

func (g *generator) receiverClass(r *ReceiverSpec) *smali.Class {
	c := &smali.Class{Name: g.fq(r.Name), Super: smali.ClassReceiver, Access: publicAccess}
	var body []smali.Instr
	for _, api := range r.Sensitive {
		body = append(body, ins(smali.OpInvokeSensitive, api))
	}
	if r.StartsActivity != "" {
		body = append(body, ins(smali.OpNewIntent, g.fq(r.Name), g.fq(r.StartsActivity)))
		if target := g.spec.activity(r.StartsActivity); target != nil && target.RequiresExtra != "" {
			body = append(body, ins(smali.OpPutExtra, target.RequiresExtra, "ctx"))
		}
		body = append(body, ins(smali.OpStartActivity))
	}
	if len(body) == 0 {
		body = append(body, ins(smali.OpLog, "broadcast received"))
	}
	c.Methods = append(c.Methods, &smali.Method{
		Name: "onReceive", Access: publicAccess, Body: body,
	})
	return c
}

func putLayout(arch *apk.Archive, l *layout.Layout) error {
	data, err := l.Encode()
	if err != nil {
		return err
	}
	return arch.Put(apk.LayoutDir+l.Name+".xml", data)
}

func putClass(arch *apk.Archive, c *smali.Class) error {
	p := apk.SmaliDir + strings.ReplaceAll(c.Name, ".", "/") + ".smali"
	return arch.Put(p, smali.WriteClass(c))
}

func (g *generator) buildManifest() *manifest.Manifest {
	m := manifest.Manifest{Package: g.spec.Package, VersionName: "1.0"}
	m.Application.Label = g.spec.Package
	// Declare the permissions guarding every sensitive API the app invokes,
	// like a well-formed Play Store app would.
	for _, p := range g.requiredPermissions() {
		m.Permissions = append(m.Permissions, manifest.Permission{Name: p})
	}
	m.Application.Activities = make([]manifest.Activity, 0, len(g.spec.Activities))
	for _, a := range g.spec.Activities {
		act := manifest.Activity{Name: g.fq(a.Name)}
		if a.Launcher {
			act.Filters = append(act.Filters, manifest.IntentFilter{
				Actions:    []manifest.Action{{Name: manifest.ActionMain}},
				Categories: []manifest.Category{{Name: manifest.CategoryLauncher}},
			})
		}
		// Intent-filter actions for implicit transitions targeting this
		// activity.
		for _, tr := range g.spec.Transition {
			if tr.Kind == TransAction && tr.To == a.Name {
				act.Filters = append(act.Filters, manifest.IntentFilter{
					Actions: []manifest.Action{{Name: tr.Action}},
				})
			}
		}
		if a.DeepLink != "" {
			act.Filters = append(act.Filters, manifest.IntentFilter{
				Actions: []manifest.Action{{Name: manifest.ActionView}},
				Categories: []manifest.Category{
					{Name: manifest.CategoryDefault},
					{Name: manifest.CategoryBrowsable},
				},
				Data: []manifest.Data{{URI: a.DeepLink}},
			})
		}
		m.Application.Activities = append(m.Application.Activities, act)
	}
	for _, r := range g.spec.Receivers {
		rec := manifest.Receiver{Name: g.fq(r.Name)}
		for _, action := range r.Actions {
			rec.Filters = append(rec.Filters, manifest.IntentFilter{
				Actions: []manifest.Action{{Name: action}},
			})
		}
		m.Application.Receivers = append(m.Application.Receivers, rec)
	}
	return &m
}

// requiredPermissions derives the unique, sorted permission set from all
// sensitive APIs the spec invokes.
func (g *generator) requiredPermissions() []string {
	set := make(map[string]bool)
	add := func(apis []string) {
		for _, api := range apis {
			for _, p := range sensitive.PermissionsFor(api) {
				set[p] = true
			}
		}
	}
	for _, a := range g.spec.Activities {
		add(a.Sensitive)
	}
	for _, f := range g.spec.Fragments {
		add(f.Sensitive)
	}
	for _, r := range g.spec.Receivers {
		add(r.Sensitive)
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// needsDrawer / needsSlideDrawer report which drawer variants the activity
// layout requires, given its outgoing transitions.
func needsDrawer(a *ActivitySpec, out []Transition) bool {
	return hasTransition(out, TransDrawerButton) || hasWire(a, WireTxnDrawer)
}

func needsSlideDrawer(a *ActivitySpec, out []Transition) bool {
	return hasTransition(out, TransSlideDrawer) || hasWire(a, WireTxnSlideDrawer)
}

func hasTransition(out []Transition, kind TransKind) bool {
	for _, tr := range out {
		if tr.Kind == kind {
			return true
		}
	}
	return false
}

func hasWire(a *ActivitySpec, kind WireKind) bool {
	for _, w := range a.Wires {
		if w.Kind == kind {
			return true
		}
	}
	return false
}

func needsContainer(a *ActivitySpec) bool {
	for _, w := range a.Wires {
		switch w.Kind {
		case WireTxnOnCreate, WireTxnButton, WireTxnDrawer, WireTxnSlideDrawer, WireInflate:
			return true
		}
	}
	return false
}

// activityLayout builds the layout of activity a, whose outgoing
// transitions are out.
func (g *generator) activityLayout(a *ActivitySpec, out []Transition) (*layout.Layout, error) {
	la := g.low(a.Name)
	root := layout.Root(layout.TypeLinearLayout).ID(refRoot(la))
	root.Child(layout.Root(layout.TypeTextView).
		ID("@id/" + la + "_title").Text(a.Name))

	if needsDrawer(a, out) {
		root.Child(layout.Root(layout.TypeImageButton).
			ID(refDrawerToggle(la)).OnClick(handlerToggleDrawer))
		drawer := layout.Root(layout.TypeDrawerLayout).ID(refDrawer(la)).HiddenW()
		for _, tr := range out {
			if tr.Kind == TransDrawerButton {
				drawer.Child(layout.Root(layout.TypeButton).
					ID(refMenuButton(la, g.low(tr.To))).Text(tr.To).OnClick(handlerGo(tr.To)))
			}
		}
		for _, w := range a.Wires {
			if w.Kind == WireTxnDrawer {
				drawer.Child(layout.Root(layout.TypeButton).
					ID(refMenuFragButton(la, g.low(w.Fragment))).Text(w.Fragment).
					OnClick(handlerShow(w.Fragment)))
			}
		}
		root.Child(drawer)
	}
	if needsSlideDrawer(a, out) {
		slide := layout.Root(layout.TypeDrawerLayout).ID(refSlideDrawer(la)).HiddenW()
		for _, tr := range out {
			if tr.Kind == TransSlideDrawer {
				slide.Child(layout.Root(layout.TypeButton).
					ID(refSlideMenuButton(la, g.low(tr.To))).Text(tr.To).OnClick(handlerGo(tr.To)))
			}
		}
		for _, w := range a.Wires {
			if w.Kind == WireTxnSlideDrawer {
				slide.Child(layout.Root(layout.TypeButton).
					ID(refSlideMenuFragButton(la, g.low(w.Fragment))).Text(w.Fragment).
					OnClick(handlerShow(w.Fragment)))
			}
		}
		root.Child(slide)
	}

	for _, tr := range out {
		switch tr.Kind {
		case TransButton:
			if tr.Gate != nil {
				hint := tr.Gate.Hint
				if hint == "" {
					hint = "code for " + tr.To
				}
				root.Child(layout.Root(layout.TypeEditText).ID(g.gateField(a.Name, tr)).Hint(hint))
			}
			root.Child(layout.Root(layout.TypeButton).
				ID(refNavButton(la, g.low(tr.To))).Text(tr.To).OnClick(handlerGo(tr.To)))
		case TransAction:
			root.Child(layout.Root(layout.TypeButton).
				ID(refActionButton(la, g.low(tr.To))).Text(tr.To).OnClick(handlerAct(tr.To)))
		}
	}

	for _, w := range a.Wires {
		if w.Kind == WireTxnButton {
			// Tab buttons get their listeners registered in code.
			root.Child(layout.Root(layout.TypeTabItem).
				ID(refTabButton(la, g.low(w.Fragment))).Text(w.Fragment))
		}
		if w.Kind == WireStatic {
			root.Child(layout.Root(layout.TypeFragment).
				ID(refStaticFrag(la, g.low(w.Fragment))).Class(g.fq(w.Fragment)))
		}
	}
	if needsContainer(a) {
		root.Child(layout.Root(layout.TypeFrameLayout).ID(refContainer(la)))
	}
	return root.BuildLayout("activity_" + la)
}

func (g *generator) fragmentLayout(f *FragmentSpec) (*layout.Layout, error) {
	lf := g.low(f.Name)
	root := layout.Root(layout.TypeLinearLayout).ID(refFragRoot(lf))
	root.Child(layout.Root(layout.TypeTextView).ID(refFragLabel(lf)).Text(f.Name))
	for _, sw := range g.switchesFrom(f.Name) {
		root.Child(layout.Root(layout.TypeButton).
			ID(refSwitchButton(lf, g.low(sw.To))).Text(sw.To).OnClick(handlerSwitch(sw.To)))
	}
	return root.BuildLayout("fragment_" + lf)
}

// ins is a tiny instruction constructor for generated code.
func ins(op smali.Op, args ...string) smali.Instr {
	return smali.Instr{Op: op, Args: args}
}

func (g *generator) fmOps(a *ActivitySpec) (get smali.Op) {
	if a.SupportFM {
		return smali.OpGetSupportFragmentManager
	}
	return smali.OpGetFragmentManager
}

// activityClass builds the class of activity a, whose outgoing transitions
// are out.
func (g *generator) activityClass(a *ActivitySpec, out []Transition) *smali.Class {
	super := smali.ClassActivity
	if a.SupportFM {
		super = smali.ClassFragmentActivity
	}
	la := g.low(a.Name)
	c := &smali.Class{Name: g.fq(a.Name), Super: super, Access: publicAccess}

	var onCreate []smali.Instr
	if a.RequiresExtra != "" {
		onCreate = append(onCreate, ins(smali.OpRequireExtra, a.RequiresExtra))
	}
	onCreate = append(onCreate, ins(smali.OpSetContentView, "@layout/activity_"+la))
	for _, w := range a.Wires {
		if w.Kind == WireTxnButton {
			onCreate = append(onCreate,
				ins(smali.OpSetClickListener, refTabButton(la, g.low(w.Fragment)), handlerShow(w.Fragment)))
		}
	}
	for _, api := range a.Sensitive {
		onCreate = append(onCreate, ins(smali.OpInvokeSensitive, api))
	}
	for _, w := range a.Wires {
		switch w.Kind {
		case WireTxnOnCreate:
			onCreate = append(onCreate,
				ins(g.fmOps(a)),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnAdd, refContainer(la), g.fq(w.Fragment)),
				ins(smali.OpTxnCommit),
			)
		case WireInflate:
			onCreate = append(onCreate,
				ins(smali.OpInflateView, refContainer(la), g.fq(w.Fragment)))
		case WireReferenceOnly:
			onCreate = append(onCreate, ins(smali.OpNewInstance, g.fq(w.Fragment)))
		}
	}
	if a.PopupOnCreate {
		onCreate = append(onCreate, ins(smali.OpShowPopup, "app bar menu"))
	}
	c.Methods = append(c.Methods, &smali.Method{
		Name: "onCreate", Access: publicAccess, Body: onCreate,
	})

	if needsDrawer(a, out) {
		c.Methods = append(c.Methods, &smali.Method{
			Name: handlerToggleDrawer, Access: publicAccess,
			Body: []smali.Instr{ins(smali.OpToggleVisible, refDrawer(la))},
		})
	}

	for _, tr := range out {
		var body []smali.Instr
		if tr.Gate != nil {
			body = append(body, ins(smali.OpRequireInput, g.gateField(a.Name, tr), GateValue(tr.Gate, tr.To)))
		}
		name := handlerGo(tr.To)
		if tr.Kind == TransAction {
			name = handlerAct(tr.To)
			body = append(body, ins(smali.OpNewIntentAction, tr.Action))
		} else {
			body = append(body, ins(smali.OpNewIntent, g.fq(a.Name), g.fq(tr.To)))
		}
		if target := g.spec.activity(tr.To); target != nil && target.RequiresExtra != "" {
			body = append(body, ins(smali.OpPutExtra, target.RequiresExtra, "ctx"))
		}
		body = append(body, ins(smali.OpStartActivity))
		c.Methods = append(c.Methods, &smali.Method{
			Name: name, Access: publicAccess, Body: body,
		})
	}

	for _, w := range a.Wires {
		switch w.Kind {
		case WireTxnButton, WireTxnDrawer, WireTxnSlideDrawer:
			c.Methods = append(c.Methods, &smali.Method{
				Name: handlerShow(w.Fragment), Access: publicAccess,
				Body: []smali.Instr{
					ins(g.fmOps(a)),
					ins(smali.OpBeginTransaction),
					ins(smali.OpTxnReplace, refContainer(la), g.fq(w.Fragment)),
					ins(smali.OpTxnCommit),
				},
			})
		}
	}
	return c
}

func (g *generator) fragmentClass(f *FragmentSpec) *smali.Class {
	c := &smali.Class{
		Name:         g.fq(f.Name),
		Super:        smali.ClassFragment,
		Access:       publicAccess,
		RequiresArgs: f.RequiresArgs,
	}
	body := []smali.Instr{ins(smali.OpSetContentView, "@layout/fragment_"+g.low(f.Name))}
	for _, api := range f.Sensitive {
		body = append(body, ins(smali.OpInvokeSensitive, api))
	}
	c.Methods = append(c.Methods, &smali.Method{
		Name: "onCreateView", Access: publicAccess, Body: body,
	})
	for _, sw := range g.switchesFrom(f.Name) {
		host, ok := g.hostOf(sw.From)
		if !ok {
			host = f.Name // unreachable; Validate guarantees a host
		}
		c.Methods = append(c.Methods, &smali.Method{
			Name: handlerSwitch(sw.To), Access: publicAccess,
			Body: []smali.Instr{
				ins(smali.OpGetFragmentManager),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnReplace, refContainer(g.low(host)), g.fq(sw.To)),
				ins(smali.OpTxnCommit),
			},
		})
	}
	return c
}
