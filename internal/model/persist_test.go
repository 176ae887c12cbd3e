package model

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"

	"tcb/internal/rng"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := testModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != m.Cfg {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.Cfg, m.Cfg)
	}
	// The loaded model must compute identical outputs.
	src := rng.New(61)
	req := randTokens(src, 6)
	want := m.EncodeSingle(req)
	got := loaded.EncodeSingle(req)
	if !got.Equal(want) {
		t.Fatalf("loaded model diverges by %g", got.MaxAbsDiff(want))
	}
	// Including generation.
	layout := SingleSegment(len(req), len(req))
	wGen := m.GenerateRow(want, layout, nil, 4, AttDense)
	gGen := loaded.GenerateRow(got, layout, nil, 4, AttDense)
	if len(wGen[0].Tokens) != len(gGen[0].Tokens) {
		t.Fatal("generation differs after reload")
	}
	for i := range wGen[0].Tokens {
		if wGen[0].Tokens[i] != gGen[0].Tokens[i] {
			t.Fatalf("token %d differs after reload", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := testModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg.DModel != m.Cfg.DModel {
		t.Fatal("file round trip lost config")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestLoadRejectsCorruptData(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("corrupt stream should fail")
	}
}

func TestLoadRejectsInconsistentCheckpoint(t *testing.T) {
	m := testModel(t)
	// Tamper: config says more layers than the weights have.
	bad := checkpoint{Version: checkpointVersion, Cfg: m.Cfg, P: m.P}
	bad.Cfg.EncLayers++
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("layer-count mismatch should fail")
	}
	// Wrong version.
	buf.Reset()
	worse := checkpoint{Version: 99, Cfg: m.Cfg, P: m.P}
	if err := gob.NewEncoder(&buf).Encode(worse); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("version mismatch should fail")
	}
	// Missing weights.
	buf.Reset()
	empty := checkpoint{Version: checkpointVersion, Cfg: m.Cfg}
	if err := gob.NewEncoder(&buf).Encode(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("missing weights should fail")
	}
}
