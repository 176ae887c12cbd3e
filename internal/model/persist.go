package model

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// checkpoint is the on-disk representation: the config travels with the
// weights so a loaded model is self-describing.
type checkpoint struct {
	Version int
	Cfg     Config
	P       *Params
}

// checkpointVersion guards against loading incompatible formats.
const checkpointVersion = 1

// Save serializes the model (config + weights) with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(checkpoint{Version: checkpointVersion, Cfg: m.Cfg, P: m.P}); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save and validates it.
func Load(r io.Reader) (*Model, error) {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("model: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	if err := ck.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("model: loaded config invalid: %w", err)
	}
	if ck.P == nil || ck.P.Embedding == nil || ck.P.OutProj == nil {
		return nil, fmt.Errorf("model: checkpoint missing weights")
	}
	if ck.P.Embedding.Rows != ck.Cfg.VocabSize || ck.P.Embedding.Cols != ck.Cfg.DModel {
		return nil, fmt.Errorf("model: embedding %dx%d does not match config %dx%d",
			ck.P.Embedding.Rows, ck.P.Embedding.Cols, ck.Cfg.VocabSize, ck.Cfg.DModel)
	}
	if len(ck.P.Encoder) != ck.Cfg.EncLayers || len(ck.P.Decoder) != ck.Cfg.DecLayers {
		return nil, fmt.Errorf("model: %d/%d layers vs config %d/%d",
			len(ck.P.Encoder), len(ck.P.Decoder), ck.Cfg.EncLayers, ck.Cfg.DecLayers)
	}
	return &Model{Cfg: ck.Cfg, P: ck.P}, nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.Save(f)
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
