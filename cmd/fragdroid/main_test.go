package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"fragdroid/internal/corpus"
)

// TestMain points the default "auto" store at a throwaway directory so tests
// never touch the user's real artifact cache (and still exercise the
// persistent path).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fragdroid-test-cache")
	if err != nil {
		panic(err)
	}
	os.Setenv("FRAGDROID_CACHE", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunDemo(t *testing.T) {
	if err := run([]string{"-app", "demo", "-max-cases", "200", "-curve"}); err != nil {
		t.Fatalf("run demo: %v", err)
	}
	if err := run([]string{"-app", "demo", "-md"}); err != nil {
		t.Fatalf("run demo -md: %v", err)
	}
}

func TestRunStrategyFlag(t *testing.T) {
	for _, name := range []string{"biased", "model", "trace"} {
		if err := run([]string{"-app", "demo", "-strategy", name,
			"-max-cases", "150", "-seed", "11", "-curve"}); err != nil {
			t.Fatalf("run -strategy %s: %v", name, err)
		}
	}
	if err := run([]string{"-app", "demo", "-strategy", "bogus"}); err == nil {
		t.Fatal("-strategy bogus: want error")
	}
}

func TestRunMeta(t *testing.T) {
	if err := run([]string{"-app", "demo", "-meta"}); err != nil {
		t.Fatalf("run -meta: %v", err)
	}
}

func TestRunPaperAppWithFlags(t *testing.T) {
	if err := run([]string{"-app", "org.rbc.odb", "-no-reflection", "-no-forced-start"}); err != nil {
		t.Fatalf("run paper app: %v", err)
	}
}

func TestRunFromArchiveAndInputs(t *testing.T) {
	dir := t.TempDir()
	arch, err := corpus.BuildArchive(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	apkPath := filepath.Join(dir, "demo.sapk")
	if err := os.WriteFile(apkPath, arch.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	inputs := `[{"ref":"@id/login_input_account","value":"alice"}]`
	inPath := filepath.Join(dir, "inputs.json")
	if err := os.WriteFile(inPath, []byte(inputs), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-app", apkPath, "-inputs", inPath}); err != nil {
		t.Fatalf("run from archive: %v", err)
	}
}

func TestRunEmitJavaAndTests(t *testing.T) {
	if err := run([]string{"-app", "demo", "-java"}); err != nil {
		t.Fatalf("run -java: %v", err)
	}
	dir := t.TempDir()
	if err := run([]string{"-app", "demo", "-emit-tests", dir}); err != nil {
		t.Fatalf("run -emit-tests: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "build.xml")); err != nil {
		t.Fatalf("build.xml missing: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "src"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no java programs emitted: %v", err)
	}
	// One .java plus one .json per program; replay a stored one end-to-end.
	var jsonFile string
	javaCount, jsonCount := 0, 0
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".java":
			javaCount++
		case ".json":
			jsonCount++
			jsonFile = filepath.Join(dir, "src", e.Name())
		}
	}
	if javaCount == 0 || javaCount != jsonCount {
		t.Fatalf("java=%d json=%d", javaCount, jsonCount)
	}
	if err := run([]string{"-app", "demo", "-run-test", jsonFile}); err != nil {
		t.Fatalf("run -run-test: %v", err)
	}
	if err := run([]string{"-app", "demo", "-run-test", "/missing.json"}); err == nil {
		t.Error("missing test file: want error")
	}
}

func TestRunTargetMode(t *testing.T) {
	if err := run([]string{"-app", "demo", "-target", "media/Camera.startPreview"}); err != nil {
		t.Fatalf("run -target: %v", err)
	}
	// Unreachable and unknown APIs still complete (reporting not-triggered).
	if err := run([]string{"-app", "demo", "-target", "phone/Configuration.MCC"}); err != nil {
		t.Fatalf("run -target unreachable: %v", err)
	}
	if err := run([]string{"-app", "demo", "-target", "browser/Downloads"}); err != nil {
		t.Fatalf("run -target unused: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-app", "no.such.app"}); err == nil {
		t.Error("unknown app: want error")
	}
	if err := run([]string{"-app", "/does/not/exist.sapk"}); err == nil {
		t.Error("missing archive: want error")
	}
	if err := run([]string{"-app", "demo", "-inputs", "/missing.json"}); err == nil {
		t.Error("missing inputs: want error")
	}
}

// TestRunWritesNoSnapshots pins that an exploration replays its routes from
// launch: a run on a fresh store fills builds and extractions but leaves the
// snapshot/ keyspace empty.
func TestRunWritesNoSnapshots(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-app", "demo", "-cache", dir}); err != nil {
		t.Fatalf("run demo: %v", err)
	}
	count := func(kind string) int {
		n := 0
		filepath.WalkDir(filepath.Join(dir, kind), func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				n++
			}
			return err
		})
		return n
	}
	if count("extraction") == 0 {
		t.Fatal("run filled no extraction into the store")
	}
	if n := count("snapshot"); n > 0 {
		t.Errorf("run wrote %d snapshot entries", n)
	}
}
