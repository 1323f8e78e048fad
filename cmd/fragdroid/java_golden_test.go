package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunJavaGolden pins `fragdroid -app demo -java`: the rendered
// pseudo-Java of every demo class, byte for byte.
func TestRunJavaGolden(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run([]string{"-app", "demo", "-java"})
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("run -java: %v", err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "demo_java.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-java output drifted from testdata/demo_java.golden:\n%s", got)
	}
}
