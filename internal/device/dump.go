package device

import (
	"fmt"
	"sort"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
)

// WidgetInfo is one visible-tree entry of a UI dump, the uiautomator-style
// view the driving layer observes.
type WidgetInfo struct {
	// Ref is the normalized widget reference.
	Ref string
	// Type is the widget class.
	Type string
	// Text is the effective display text (overrides applied).
	Text string
	// Visible is the effective visibility.
	Visible bool
	// Clickable reports whether a click would reach a handler.
	Clickable bool
	// Editable reports input widgets.
	Editable bool
	// FromFragment names the live fragment owning the widget, "" for the
	// activity's own layout.
	FromFragment string
}

// UIDump is a point-in-time observation of the foreground UI.
type UIDump struct {
	// Activity is the foreground activity class (as `dumpsys activity` would
	// report).
	Activity string
	// Widgets lists the widget tree in draw order (top-to-bottom,
	// left-to-right — the click order of §VI-A Case 3).
	Widgets []WidgetInfo
	// FMFragments lists, sorted, the fragment classes currently committed
	// through a FragmentManager — what instrumentation can confirm via
	// reflection.
	// Fragments loaded without a FragmentManager are NOT listed (the
	// com.mobilemotion.dubsmash blind spot).
	FMFragments []string
	// HasDialog reports a modal dialog or popup obscuring the UI.
	HasDialog bool
}

// VisibleRefs returns the refs of visible widgets.
func (u UIDump) VisibleRefs() []string {
	return u.refs(func(w WidgetInfo) bool { return w.Visible })
}

// ClickableRefs returns refs that are both visible and clickable, in draw
// order.
func (u UIDump) ClickableRefs() []string {
	return u.refs(func(w WidgetInfo) bool { return w.Visible && w.Clickable })
}

// EditableRefs returns visible input widgets in draw order.
func (u UIDump) EditableRefs() []string {
	return u.refs(func(w WidgetInfo) bool { return w.Visible && w.Editable })
}

// refs collects matching widget refs in draw order: counted first so the
// result is a single exact allocation, nil when nothing matches (these run
// after every observed action, so growslice churn here is pure GC pressure).
func (u UIDump) refs(match func(WidgetInfo) bool) []string {
	n := 0
	for _, w := range u.Widgets {
		if match(w) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, w := range u.Widgets {
		if match(w) {
			out = append(out, w.Ref)
		}
	}
	return out
}

// Dump observes the current UI.
func (d *Device) Dump() (UIDump, error) {
	if d.crashed {
		return UIDump{}, ErrCrashed
	}
	t := d.top()
	if t == nil {
		return UIDump{}, ErrNotRunning
	}
	dump := UIDump{Activity: t.class, HasDialog: t.dialog != nil}
	// Size the widget list exactly: every IDRef'd widget in the content tree
	// and each live fragment's tree produces one entry regardless of
	// visibility, and layouts are immutable, so the per-layout census is
	// memoized and the sum is exact — one allocation, no growslice ladder.
	n := 0
	if t.content != nil {
		n = t.content.IDRefCount()
	}
	for _, c := range t.fragOrder {
		if f := t.fragments[c]; f != nil && f.content != nil {
			n += f.content.IDRefCount()
		}
	}
	if n > 0 {
		dump.Widgets = make([]WidgetInfo, 0, n)
	}

	appendTree := func(l *layout.Layout, fromFragment string, baseVisible bool, owner *fragmentInstance) {
		if l == nil {
			return
		}
		var walk func(w *layout.Widget, vis bool)
		walk = func(w *layout.Widget, vis bool) {
			wVis := vis && widgetVisible(w, t.visible)
			if w.IDRef != "" {
				ref := apk.NormalizeRef(w.IDRef)
				info := WidgetInfo{
					Ref:          ref,
					Type:         w.Type,
					Text:         w.Text,
					Visible:      wVis,
					Editable:     w.Input(),
					FromFragment: fromFragment,
				}
				if txt, ok := t.texts[ref]; ok {
					info.Text = txt
				}
				ow := widgetOwner{}
				if owner != nil {
					ow = widgetOwner{fragment: owner}
				}
				_, info.Clickable = d.handlerFor(t, w, ow, ref)
				if w.Type == layout.TypeCheckBox {
					info.Clickable = true // toggles even without a handler
				}
				dump.Widgets = append(dump.Widgets, info)
			}
			for _, c := range w.Children {
				walk(c, wVis)
			}
		}
		walk(l.Root, baseVisible)
	}

	appendTree(t.content, "", true, nil)
	for _, c := range t.fragOrder {
		f := t.fragments[c]
		if f == nil {
			continue
		}
		baseVis := true
		if t.content != nil {
			if _, vis, ok := findInTree(t.content, f.container, t.visible); ok {
				baseVis = vis
			}
		}
		appendTree(f.content, f.class, baseVis, f)
	}

	nfm := 0
	for _, c := range t.fragOrder {
		if f := t.fragments[c]; f != nil && f.viaFM {
			nfm++
		}
	}
	if nfm > 0 {
		fm := make([]string, 0, nfm)
		for _, c := range t.fragOrder {
			if f := t.fragments[c]; f != nil && f.viaFM {
				fm = append(fm, f.class)
			}
		}
		sort.Strings(fm)
		dump.FMFragments = fm
	}
	return dump, nil
}

// ActiveFragments returns ground truth about live fragments: every fragment
// instance in the foreground activity with its via-FragmentManager flag.
// The evaluation harness uses it for Sum accounting; the explorer must rely
// on Dump (which hides non-FM fragments), like real instrumentation.
func (d *Device) ActiveFragments() map[string]bool {
	t := d.top()
	if t == nil || d.crashed {
		return nil
	}
	out := make(map[string]bool)
	for _, c := range t.fragOrder {
		if f := t.fragments[c]; f != nil {
			out[f.class] = f.viaFM
		}
	}
	return out
}

// String renders the dump for logs and debugging.
func (u UIDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "activity=%s dialog=%v fm=%v\n", u.Activity, u.HasDialog, u.FMFragments)
	for _, w := range u.Widgets {
		flags := ""
		if w.Visible {
			flags += "V"
		}
		if w.Clickable {
			flags += "C"
		}
		if w.Editable {
			flags += "E"
		}
		src := "activity"
		if w.FromFragment != "" {
			src = w.FromFragment
		}
		fmt.Fprintf(&b, "  %-40s %-12s [%-3s] %s\n", w.Ref, w.Type, flags, src)
	}
	return b.String()
}
