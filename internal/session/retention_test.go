package session_test

import (
	"runtime"
	"testing"
	"weak"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/session"
)

// TestEvaluatedAppCollectable is the retention regression test: an app
// explored through a snapshot memo — which fingerprints it — must become
// garbage once the caller drops the app and the memo. A process-global
// fingerprint cache keyed by app pointer would pin every installed app, and
// everything reachable from it, until process exit.
func TestEvaluatedAppCollectable(t *testing.T) {
	wp := func() weak.Pointer[apk.App] {
		app, err := corpus.BuildApp(corpus.DemoSpec())
		if err != nil {
			t.Fatal(err)
		}
		cfg := explorer.DefaultConfig()
		cfg.Snapshots = session.NewSnapshotMemo(0)
		res, err := explorer.Explore(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.SnapshotHits == 0 {
			t.Fatal("exploration never consulted the snapshot memo")
		}
		return weak.Make(app)
	}()
	for i := 0; i < 5 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("explored app is still reachable after the caller dropped it")
	}
}
