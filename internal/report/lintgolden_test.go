package report

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
)

var updateGolden = flag.Bool("update", false, "rewrite the family lint goldens under testdata/")

// TestFamilyLintGolden pins the corpus-scale lint sweep: RunLintStudy over
// the 2000-app family must render exactly the summary
// `fragstudy -lint -corpus family -n 2000 -seed S -stream -cache off`
// printed when the goldens were captured, for seeds 1 and 3. Any change to
// the static phase, the call graph or the analyzers that moves one finding
// shows up here.
func TestFamilyLintGolden(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s, err := RunLintStudy(StudyConfig{
				Seed: seed, Parallel: 2, Cache: artifact.NewCache(),
				Source: corpus.NewFamily(2000, seed),
			})
			if err != nil {
				t.Fatal(err)
			}
			got := RenderLintStudy(s) + "\n"
			path := filepath.Join("testdata", fmt.Sprintf("family_lint_seed%d.golden", seed))
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("family lint summary drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}
