package corpus

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fragdroid/internal/apk"
)

var updateMemberBytes = flag.Bool("update", false, "rewrite testdata/member_bytes.golden")

// memberDigest renders one generated app as "pack=<sha256 of the archive
// bytes> res=<sha256 of the resource entries>". The archive hash pins every
// serialized byte (manifest, layouts, smali); the entry hash pins the ID
// numbering, which the archive alone does not show.
func memberDigest(t *testing.T, spec *AppSpec) string {
	t.Helper()
	app, err := BuildApp(spec)
	if err != nil {
		t.Fatalf("%s: build: %v", spec.Package, err)
	}
	arch, err := app.Pack()
	if err != nil {
		t.Fatalf("%s: pack: %v", spec.Package, err)
	}
	return fmt.Sprintf("pack=%x res=%x", sha256.Sum256(arch.Bytes()), sha256.Sum256(entryBytes(app)))
}

func entryBytes(app *apk.App) []byte {
	var b strings.Builder
	for _, e := range app.Resources.Entries() {
		fmt.Fprintf(&b, "%d %s %08x\n", int(e.Kind), e.Name, uint32(e.ID))
	}
	return []byte(b.String())
}

// TestMemberBytesGolden pins the generated corpus byte for byte: every
// non-packed member of NewFamily(300, 1) and NewFamily(120, 3), and
// RandomSpec seeds 1–50, must build into exactly the archive bytes and
// resource numbering recorded in testdata/member_bytes.golden, next to the
// member's axes. The golden was captured before the generator's fast paths
// (jump-ahead seeding, dense resource table, per-build name and transition
// indexes) went in, so it proves they change no byte. Regenerate with
// -update only for an intended change to the corpus.
func TestMemberBytesGolden(t *testing.T) {
	var b strings.Builder
	for _, fc := range []struct {
		n    int
		seed int64
	}{{300, 1}, {120, 3}} {
		fam := NewFamily(fc.n, fc.seed)
		for i := 0; i < fam.Len(); i++ {
			spec, axes := fam.Member(i)
			if spec.Packed {
				continue
			}
			fmt.Fprintf(&b, "family n=%d seed=%d i=%d axes=%s %s\n",
				fc.n, fc.seed, i, strings.Join(axes, ","), memberDigest(t, spec))
		}
	}
	for seed := int64(1); seed <= 50; seed++ {
		spec := RandomSpec(fmt.Sprintf("com.golden.rand%02d", seed), seed)
		fmt.Fprintf(&b, "random seed=%d %s\n", seed, memberDigest(t, spec))
	}
	got := b.String()
	path := filepath.Join("testdata", "member_bytes.golden")
	if *updateMemberBytes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("generated bytes drifted from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("generated bytes drifted from %s: %d lines, want %d", path, len(gl), len(wl))
}
