package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"agingpred/internal/features"
	"agingpred/internal/linreg"
	"agingpred/internal/m5p"
	"agingpred/internal/regtree"
)

// The persisted model format is a small binary envelope around a JSON
// payload:
//
//	offset  size  field
//	0       4     magic "AGPM"
//	4       4     format version, big-endian uint32 (currently 1)
//	8       4     payload length in bytes, big-endian uint32
//	12      4     CRC-32 (IEEE) of the payload, big-endian uint32
//	16      n     JSON payload (modelPayload)
//
// The envelope gives fail-fast detection of wrong files, truncation and bit
// rot; the JSON payload keeps the model structure inspectable with standard
// tooling and round-trips float64 values exactly (Go's shortest-form float
// encoding), which is what makes a decoded model predict bit-identically to
// the in-memory one. DecodeModel additionally checks schema compatibility:
// the schema is stored by registry name and re-resolved on load, and the
// stored column list must match what the resolved schema generates today.

const (
	// FormatVersion is the version written by Encode and required by
	// DecodeModel. Bump it when the payload layout changes incompatibly.
	FormatVersion = 1

	formatMagic = "AGPM"

	// maxPayloadBytes bounds the payload allocation during decode so a
	// corrupt or hostile length field cannot ask for gigabytes. Real models
	// are a few hundred kilobytes.
	maxPayloadBytes = 64 << 20
)

// modelPayload is the JSON body of a persisted model. Exactly one of the
// family snapshots is set, matching Kind.
type modelPayload struct {
	Kind   ModelKind `json:"kind"`
	Schema string    `json:"schema"`
	Window int       `json:"window"`
	// Attrs pins the column layout the schema generated at save time; decode
	// fails fast if the registered schema has drifted since.
	Attrs []string `json:"attrs"`

	// Training configuration, in Config's user-facing spelling (LeafMaxAttrs
	// -1 = no cap) so it survives a round trip through Config.withDefaults.
	MinLeafInstances int     `json:"min_leaf_instances"`
	LeafMaxAttrs     int     `json:"leaf_max_attrs"`
	Unpruned         bool    `json:"unpruned,omitempty"`
	NoSmoothing      bool    `json:"no_smoothing,omitempty"`
	InfiniteTTFSec   float64 `json:"infinite_ttf_sec"`

	Report TrainReport `json:"report"`

	M5P     *m5p.Snapshot     `json:"m5p,omitempty"`
	LinReg  *linreg.Snapshot  `json:"linreg,omitempty"`
	RegTree *regtree.Snapshot `json:"regtree,omitempty"`
}

// Encode writes the model as a versioned artifact that DecodeModel can load
// in any process — tree structure, leaf models, schema name and window, and
// training configuration. The model's schema must be reproducible from the
// schema registry by name (every built-in schema is; a custom schema must be
// registered before models trained on it can be saved), because the artifact
// stores the schema by name rather than serialising accessor functions.
func (m *Model) Encode(w io.Writer) error {
	payload, err := m.encodePayload()
	if err != nil {
		return err
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("core: encoding model payload: %w", err)
	}
	return writeEnvelope(w, body)
}

// encodePayload builds the payload after checking the schema is recoverable
// by name on the decoding side.
func (m *Model) encodePayload() (*modelPayload, error) {
	base, err := features.LookupSchema(m.schema.Name())
	if err != nil {
		return nil, fmt.Errorf("core: model schema is not registered, register it before saving: %w", err)
	}
	if !base.WithWindow(m.schema.WindowLength()).AttrsEqual(m.attrs) {
		return nil, fmt.Errorf("core: model schema %q does not match the registered schema of that name; the artifact would not load", m.schema.Name())
	}
	p := &modelPayload{
		Kind:             m.cfg.Model,
		Schema:           m.schema.Name(),
		Window:           m.schema.WindowLength(),
		Attrs:            m.Attrs(),
		MinLeafInstances: m.cfg.MinLeafInstances,
		LeafMaxAttrs:     m.cfg.LeafMaxAttrs,
		Unpruned:         m.cfg.Unpruned,
		NoSmoothing:      m.cfg.NoSmoothing,
		InfiniteTTFSec:   m.cfg.InfiniteTTF.Seconds(),
		Report:           m.report,
	}
	if p.LeafMaxAttrs == 0 {
		p.LeafMaxAttrs = -1 // effective "no cap" back to the user-facing spelling
	}
	switch r := m.reg.(type) {
	case *m5p.Tree:
		p.M5P = r.Snapshot()
	case *linreg.Model:
		p.LinReg = r.Snapshot()
	case *regtree.Tree:
		p.RegTree = r.Snapshot()
	default:
		return nil, fmt.Errorf("core: cannot encode model of type %T", m.reg)
	}
	return p, nil
}

// writeEnvelope frames one payload with magic, version, length and checksum.
func writeEnvelope(w io.Writer, payload []byte) error {
	if len(payload) > maxPayloadBytes {
		return fmt.Errorf("core: model payload of %d bytes exceeds the %d-byte format limit", len(payload), maxPayloadBytes)
	}
	header := make([]byte, 16)
	copy(header, formatMagic)
	binary.BigEndian.PutUint32(header[4:], FormatVersion)
	binary.BigEndian.PutUint32(header[8:], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[12:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("core: writing model header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("core: writing model payload: %w", err)
	}
	return nil
}

// DecodeModel reads a model artifact written by Encode and reconstructs the
// immutable Model, verifying — in order — the magic, the format version, the
// payload checksum, that the payload describes exactly one model family, and
// that the feature schema it names still exists in the registry and still
// generates the column layout the model was trained on. Corrupt or truncated
// input yields an error, never a panic (FuzzDecodeModel pins this), and the
// decoded model's predictions are bit-identical to the encoded one's.
func DecodeModel(r io.Reader) (*Model, error) {
	header := make([]byte, 16)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("core: reading model header: %w", err)
	}
	if string(header[:4]) != formatMagic {
		return nil, errors.New("core: not an agingpred model artifact (bad magic)")
	}
	if v := binary.BigEndian.Uint32(header[4:]); v != FormatVersion {
		return nil, fmt.Errorf("core: unsupported model format version %d (this build reads version %d)", v, FormatVersion)
	}
	n := binary.BigEndian.Uint32(header[8:])
	if n > maxPayloadBytes {
		return nil, fmt.Errorf("core: model payload length %d exceeds the %d-byte format limit", n, maxPayloadBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("core: reading model payload: %w", err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(header[12:]) {
		return nil, errors.New("core: model payload checksum mismatch (corrupt artifact)")
	}
	var p modelPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("core: decoding model payload: %w", err)
	}
	return modelFromPayload(&p)
}

// modelFromPayload validates the payload and rebuilds the Model.
func modelFromPayload(p *modelPayload) (*Model, error) {
	snapshots := 0
	for _, set := range []bool{p.M5P != nil, p.LinReg != nil, p.RegTree != nil} {
		if set {
			snapshots++
		}
	}
	if snapshots != 1 {
		return nil, fmt.Errorf("core: model payload carries %d family snapshots, want exactly 1", snapshots)
	}

	base, err := features.LookupSchema(p.Schema)
	if err != nil {
		return nil, fmt.Errorf("core: the saved model's feature schema is unavailable: %w", err)
	}
	if p.Window <= 0 {
		return nil, fmt.Errorf("core: saved window length %d is not positive", p.Window)
	}
	schema := base.WithWindow(p.Window)
	if !schema.AttrsEqual(p.Attrs) {
		return nil, fmt.Errorf("core: schema %q no longer generates the %d columns the model was saved with (it now has %d); retrain or load with the original schema definition",
			p.Schema, len(p.Attrs), schema.NumAttrs())
	}

	cfg := Config{
		Model:            p.Kind,
		Schema:           schema,
		WindowLength:     p.Window,
		MinLeafInstances: p.MinLeafInstances,
		LeafMaxAttrs:     p.LeafMaxAttrs,
		Unpruned:         p.Unpruned,
		NoSmoothing:      p.NoSmoothing,
		InfiniteTTF:      time.Duration(p.InfiniteTTFSec * float64(time.Second)),
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	m := &Model{cfg: cfg, schema: cfg.Schema, attrs: cfg.Schema.Attrs(), report: p.Report}
	switch {
	case p.M5P != nil:
		if p.Kind != ModelM5P {
			return nil, fmt.Errorf("core: payload kind %q carries an m5p snapshot", p.Kind)
		}
		tree, err := m5p.FromSnapshot(p.M5P)
		if err != nil {
			return nil, fmt.Errorf("core: decoding M5P model: %w", err)
		}
		m.reg = tree
		m.m5pTree = tree
	case p.LinReg != nil:
		if p.Kind != ModelLinearRegression {
			return nil, fmt.Errorf("core: payload kind %q carries a linreg snapshot", p.Kind)
		}
		lr, err := linreg.FromSnapshot(p.LinReg)
		if err != nil {
			return nil, fmt.Errorf("core: decoding linear regression model: %w", err)
		}
		m.reg = lr
	default:
		if p.Kind != ModelRegressionTree {
			return nil, fmt.Errorf("core: payload kind %q carries a regtree snapshot", p.Kind)
		}
		rt, err := regtree.FromSnapshot(p.RegTree)
		if err != nil {
			return nil, fmt.Errorf("core: decoding regression tree model: %w", err)
		}
		m.reg = rt
	}
	if err := m.bind(); err != nil {
		return nil, err
	}
	return m, nil
}
