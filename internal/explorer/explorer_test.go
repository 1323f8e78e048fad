package explorer

import (
	"reflect"
	"testing"

	"fragdroid/internal/aftm"
	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/statics"
)

const pkg = "com.demo.app."

func demoApp(t *testing.T) *apk.App {
	t.Helper()
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// demoInputs provides the analyst-filled input dependency that unlocks the
// Login → Account gate.
func demoInputs() map[string]string {
	return map[string]string{corpus.InputRef("Login", "Account"): "alice"}
}

func exploreDemo(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Explore(demoApp(t), cfg)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return res
}

func fullConfig() Config {
	cfg := DefaultConfig()
	cfg.Inputs = demoInputs()
	return cfg
}

func TestExploreFullConfig(t *testing.T) {
	res := exploreDemo(t, fullConfig())

	wantActs := []string{
		pkg + "Account", pkg + "Detail", pkg + "Login", pkg + "Main",
		pkg + "Secret", pkg + "Settings", pkg + "Share",
	}
	if got := res.VisitedActivities(); !reflect.DeepEqual(got, wantActs) {
		t.Errorf("VisitedActivities = %v\nwant %v", got, wantActs)
	}

	// Home via launch, Recent via tab click, Promo via drawer click, About
	// via static commit, News via reflection. VIP (requires args), Lab
	// (no FragmentManager), Ghost (never committed) stay unvisited.
	wantFrags := []string{
		pkg + "About", pkg + "Home", pkg + "News", pkg + "Promo", pkg + "Recent",
	}
	if got := res.VisitedFragments(); !reflect.DeepEqual(got, wantFrags) {
		t.Errorf("VisitedFragments = %v\nwant %v", got, wantFrags)
	}

	// Reach methods.
	method := func(n aftm.Node) ReachMethod { return res.Visits[n].Method }
	if m := method(aftm.ActivityNode(pkg + "Main")); m != ReachLaunch {
		t.Errorf("Main reached via %s", m)
	}
	if m := method(aftm.ActivityNode(pkg + "Secret")); m != ReachForced {
		t.Errorf("Secret reached via %s (want forced-start)", m)
	}
	if m := method(aftm.FragmentNode(pkg + "News")); m != ReachReflection {
		t.Errorf("News reached via %s (want reflection)", m)
	}
	if m := method(aftm.FragmentNode(pkg + "Recent")); m != ReachClick {
		t.Errorf("Recent reached via %s (want click)", m)
	}
	if m := method(aftm.ActivityNode(pkg + "Settings")); m != ReachClick {
		t.Errorf("Settings reached via %s (want click through drawer)", m)
	}

	// Fragments-in-visited-activities accounting: all 8 dependent fragments
	// live in visited activities; 5 were visited.
	visited, sum := res.FragmentsInVisitedActivities()
	if visited != 5 || sum != 8 {
		t.Errorf("FragmentsInVisitedActivities = %d/%d, want 5/8", visited, sum)
	}

	// The model learned explicit click edges: the Detail→Settings drawer
	// transition must carry a click Via now.
	e, ok := res.Model.EdgeBetween(aftm.ActivityNode(pkg+"Detail"), aftm.ActivityNode(pkg+"Settings"))
	if !ok {
		t.Fatal("Detail->Settings edge missing from final model")
	}
	if e.Via == aftm.ViaIntent {
		t.Errorf("Detail->Settings Via not refined: %q", e.Via)
	}
	if res.TestCases == 0 || res.Steps == 0 {
		t.Error("no work recorded")
	}
}

func TestExploreWithoutInputsMissesGatedActivity(t *testing.T) {
	cfg := DefaultConfig()
	res := exploreDemo(t, cfg)
	for _, a := range res.VisitedActivities() {
		if a == pkg+"Account" {
			t.Fatal("Account visited without the input dependency (gate broken)")
		}
	}
	// Account was attempted via forced start but crashes on the missing
	// extra, so at least one crash is recorded.
	if res.Crashes == 0 {
		t.Error("no crashes recorded despite forced start of extras-requiring activity")
	}
}

func TestAblationNoReflection(t *testing.T) {
	cfg := fullConfig()
	cfg.UseReflection = false
	res := exploreDemo(t, cfg)
	for _, f := range res.VisitedFragments() {
		if f == pkg+"News" {
			t.Fatal("News visited without reflection (slide drawer should hide it)")
		}
	}
	// Everything else still works.
	want := []string{pkg + "About", pkg + "Home", pkg + "Promo", pkg + "Recent"}
	if got := res.VisitedFragments(); !reflect.DeepEqual(got, want) {
		t.Errorf("VisitedFragments = %v\nwant %v", got, want)
	}
}

func TestAblationNoForcedStart(t *testing.T) {
	cfg := fullConfig()
	cfg.UseForcedStart = false
	res := exploreDemo(t, cfg)
	for _, a := range res.VisitedActivities() {
		if a == pkg+"Secret" {
			t.Fatal("Secret visited without forced start (slide drawer should hide it)")
		}
	}
}

func TestSensitiveCollection(t *testing.T) {
	res := exploreDemo(t, fullConfig())
	usages := res.Collector.Usages()
	byAPI := make(map[string]bool)
	fragAPIs := make(map[string]bool)
	for _, u := range usages {
		byAPI[u.API] = true
		if u.ByFragment {
			fragAPIs[u.API] = true
		}
	}
	// Activity-side APIs.
	for _, api := range []string{"internet/connect", "phone/getDeviceId", "location/requestLocationUpdates"} {
		if !byAPI[api] {
			t.Errorf("missing activity API %s", api)
		}
	}
	// Fragment-side APIs, including the reflection-only News fragment.
	for _, api := range []string{"internet/inet", "storage/sdcard", "media/Camera.startPreview", "view/loadUrl"} {
		if !fragAPIs[api] {
			t.Errorf("missing fragment API %s (got %v)", api, usages)
		}
	}
	// VIP's API must NOT appear: the fragment is unreachable.
	if byAPI["phone/Configuration.MCC"] {
		t.Error("unreachable VIP fragment's API observed")
	}
	// Lab executes at runtime (inflate-view) — its API IS invoked even
	// though the fragment is never credited as visited.
	if !byAPI["system/getInstalledApplications"] {
		t.Error("Lab's API missing despite runtime inflation")
	}
}

func TestBudgetExhaustionStopsCleanly(t *testing.T) {
	cfg := fullConfig()
	cfg.MaxTestCases = 3
	res := exploreDemo(t, cfg)
	if res.TestCases > 3 {
		t.Fatalf("TestCases = %d exceeds budget", res.TestCases)
	}
	// With so few cases only the entry neighbourhood is known.
	if len(res.VisitedActivities()) == 0 {
		t.Fatal("nothing visited at all")
	}
}

func TestRoutesReplayable(t *testing.T) {
	res := exploreDemo(t, fullConfig())
	// Every recorded route must replay to a state containing the node.
	for n, v := range res.Visits {
		d := deviceFor(t, res)
		r := runRoute(t, d, v)
		if r != nil {
			t.Errorf("route to %s fails: %v", n, r)
		}
	}
}

func deviceFor(t *testing.T, res *Result) *deviceHandle {
	t.Helper()
	return &deviceHandle{res: res}
}

// deviceHandle wraps route replay for the test.
type deviceHandle struct{ res *Result }

func runRoute(t *testing.T, h *deviceHandle, v Visit) error {
	t.Helper()
	app := h.res.Extraction.App
	d := newTestDevice(app)
	rr := runScriptOn(d, v.Route)
	if rr != nil {
		return rr
	}
	return verifyNodeOnScreen(d, h.res, v.Node)
}

// TestCreditedFragments pins the §VII-B2 crediting rule every strategy
// shares: a FragmentManager-confirmed fragment is credited when a visible
// widget identifies it, or when it owns no identifiable widget at all; a
// fragment whose widgets are all hidden, or that the FragmentManager does
// not confirm, is not.
func TestCreditedFragments(t *testing.T) {
	ex, err := statics.Extract(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	home, widgetless := pkg+"Home", pkg+"NoWidgets"
	homeRef := corpus.SwitchButtonRef("Home", "Recent")
	if len(ex.ResDeps.ByOwner[home]) == 0 || len(ex.ResDeps.ByOwner[widgetless]) != 0 {
		t.Fatalf("fixture: Home owns %v, NoWidgets owns %v", ex.ResDeps.ByOwner[home], ex.ResDeps.ByOwner[widgetless])
	}
	cases := []struct {
		name    string
		fm      []string
		visible bool
		want    []string
	}{
		{"identified by a visible widget", []string{home}, true, []string{home}},
		{"its widgets all hidden", []string{home}, false, nil},
		{"owns no widget", []string{widgetless}, false, []string{widgetless}},
		{"both, sorted", []string{home, widgetless}, true, []string{home, widgetless}},
		{"not confirmed by the FragmentManager", nil, true, nil},
	}
	for _, c := range cases {
		dump := device.UIDump{
			Activity:    pkg + "Main",
			Widgets:     []device.WidgetInfo{{Ref: homeRef, Visible: c.visible, Clickable: true, FromFragment: home}},
			FMFragments: c.fm,
		}
		if got := CreditedFragments(ex, dump); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: credited %v, want %v", c.name, got, c.want)
		}
	}
	// An activity's own visible widget identifies no fragment: with Home's
	// widget hidden, Main's nav button does not credit Home.
	dump := device.UIDump{
		Activity: pkg + "Main",
		Widgets: []device.WidgetInfo{
			{Ref: homeRef, Visible: false, Clickable: true, FromFragment: home},
			{Ref: corpus.NavButtonRef("Main", "Detail"), Visible: true, Clickable: true},
		},
		FMFragments: []string{home},
	}
	if got := CreditedFragments(ex, dump); got != nil {
		t.Errorf("activity widget: credited %v, want none", got)
	}
	// On a live dump of the launched demo, Home (committed in Main.onCreate,
	// its widgets visible) is credited.
	d := device.New(demoApp(t), device.Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	live, err := d.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if got := CreditedFragments(ex, live); !reflect.DeepEqual(got, []string{home}) {
		t.Errorf("live launch dump: credited %v (FragmentManager %v), want [%s]", got, live.FMFragments, home)
	}
}
