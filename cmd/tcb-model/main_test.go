package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcb/internal/model"
)

// TestNewInfoSmokeRoundTrip: a checkpoint written with -new is described by
// -info with the flags' shape and parameter count, and passes -smoke.
func TestNewInfoSmokeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	var out, errOut bytes.Buffer
	args := "-dmodel 16 -heads 2 -dff 32 -enc 1 -dec 1 -vocab 40 -maxlen 64 -seed 3"
	if code := run(append(strings.Fields(args), "-new", path), &out, &errOut); code != 0 {
		t.Fatalf("-new exited %d: %s", code, errOut.String())
	}
	cfg := model.Config{VocabSize: 40, DModel: 16, NumHeads: 2, DFF: 32, EncLayers: 1, DecLayers: 1, MaxLen: 64, Eps: 1e-5}
	params := paramCount(model.New(cfg, 3))
	if want := fmt.Sprintf("wrote %s (%d parameters)\n", path, params); out.String() != want {
		t.Fatalf("-new printed %q, want %q", out.String(), want)
	}

	out.Reset()
	if code := run([]string{"-info", path}, &out, &errOut); code != 0 {
		t.Fatalf("-info exited %d: %s", code, errOut.String())
	}
	want := "vocab=40 d_model=16 heads=2 d_ff=32 enc=1 dec=1 max_len=64\n" +
		fmt.Sprintf("parameters: %d\n", params)
	if out.String() != want {
		t.Fatalf("-info printed %q, want %q", out.String(), want)
	}

	out.Reset()
	if code := run([]string{"-smoke", path}, &out, &errOut); code != 0 {
		t.Fatalf("-smoke exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "concat inference == standalone inference") {
		t.Fatalf("-smoke printed %q", out.String())
	}
}

// TestExitCodes: no mode or a bad flag is a usage error (2); an unreadable
// checkpoint or an invalid config is a failure (1).
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.gob")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-info", filepath.Join(dir, "missing.gob")}, 1},
		{[]string{"-smoke", garbage}, 1},
		{[]string{"-new", filepath.Join(dir, "bad.gob"), "-dmodel", "10", "-heads", "4"}, 1},
	} {
		if code := run(row.args, &bytes.Buffer{}, &bytes.Buffer{}); code != row.want {
			t.Errorf("%v: exit %d, want %d", row.args, code, row.want)
		}
	}
}
