package explorer

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/statics"
)

// selfStartingDemo builds the demo archive with one edit: Main's onCreate
// ends by starting Main again, which is legal Android.
func selfStartingDemo(t *testing.T) *apk.App {
	t.Helper()
	arch, err := corpus.BuildArchive(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	const path = "smali/com/demo/app/Main.smali"
	src, ok := arch.Get(path)
	if !ok {
		t.Fatalf("demo archive has no %s", path)
	}
	start := bytes.Index(src, []byte(".method public onCreate()V\n"))
	end := bytes.Index(src[max(start, 0):], []byte(".end method\n"))
	if start < 0 || end < 0 {
		t.Fatalf("Main has no onCreate:\n%s", src)
	}
	end += start
	edited := append(append(append([]byte(nil), src[:end]...),
		"    new-intent Lcom/demo/app/Main; Lcom/demo/app/Main;\n    start-activity\n"...),
		src[end:]...)
	if err := arch.Put(path, edited); err != nil {
		t.Fatal(err)
	}
	app, err := apk.Load(arch)
	if err != nil {
		t.Fatalf("load edited demo: %v", err)
	}
	return app
}

// TestSelfStartingActivity pins that an activity starting itself does not
// fail the app: the static phase drops the self transition instead of
// rejecting it, and a budgeted exploration ends in a result or a typed
// error — never a panic or a hang.
func TestSelfStartingActivity(t *testing.T) {
	app := selfStartingDemo(t)
	ex, err := statics.Extract(app)
	if err != nil {
		t.Fatalf("extraction failed on a self-starting activity: %v", err)
	}
	const main = "com.demo.app.Main"
	for _, e := range ex.Model.Edges() {
		if e.From == e.To {
			t.Errorf("self edge kept in the static model: %+v", e)
		}
	}
	if !contains(ex.EffectiveActivities, main) {
		t.Fatalf("%s dropped from the effective activities: %v", main, ex.EffectiveActivities)
	}

	cfg := DefaultConfig()
	cfg.MaxTestCases = 60
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := ExploreExtracted(ex, cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			// The device bounds nested starts and force-closes the app, so
			// the launch fails with the device's typed crash error.
			if !errors.Is(o.err, device.ErrCrashed) {
				t.Fatalf("exploration failed with an untyped error: %v", o.err)
			}
			return
		}
		if o.res.Stats.TestCases > cfg.MaxTestCases {
			t.Errorf("spent %d test cases, budget %d", o.res.Stats.TestCases, cfg.MaxTestCases)
		}
		if !contains(o.res.VisitedActivities(), main) {
			t.Errorf("%s not visited: %v", main, o.res.VisitedActivities())
		}
	case <-time.After(time.Minute):
		t.Fatal("exploration of a self-starting activity did not finish")
	}
}
