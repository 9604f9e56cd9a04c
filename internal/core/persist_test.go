package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"agingpred/internal/features"
	"agingpred/internal/monitor"
	"agingpred/internal/testbed"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata golden files")

// encodeToBytes is a test helper: Encode into memory.
func encodeToBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// TestEncodeDecodeRoundTrip is the core persistence guarantee: for every
// model family, a decoded model carries the same metadata and produces
// bit-identical predictions to the in-memory one on a stream it never saw.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, kind := range []ModelKind{ModelM5P, ModelLinearRegression, ModelRegressionTree} {
		t.Run(string(kind), func(t *testing.T) {
			m := trainedOn(t, Config{Model: kind})
			raw := encodeToBytes(t, m)
			got, err := DecodeModel(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("DecodeModel: %v", err)
			}
			if got.Kind() != m.Kind() {
				t.Fatalf("kind %q != %q", got.Kind(), m.Kind())
			}
			if got.Report() != m.Report() {
				t.Fatalf("report %+v != %+v", got.Report(), m.Report())
			}
			if got.Schema().Name() != m.Schema().Name() || got.Schema().WindowLength() != m.Schema().WindowLength() {
				t.Fatalf("schema %s/w%d != %s/w%d", got.Schema().Name(), got.Schema().WindowLength(),
					m.Schema().Name(), m.Schema().WindowLength())
			}
			if got.bound == nil {
				t.Fatalf("decoded model did not bind to its schema")
			}
			if cfgA, cfgB := got.Config(), m.Config(); cfgA.MinLeafInstances != cfgB.MinLeafInstances ||
				cfgA.LeafMaxAttrs != cfgB.LeafMaxAttrs || cfgA.InfiniteTTF != cfgB.InfiniteTTF {
				t.Fatalf("config drifted across the round trip: %+v vs %+v", cfgA, cfgB)
			}

			test := leakSeries("roundtrip", 300, 1.7, 0.35)
			a, b := m.NewSession(), got.NewSession()
			for i, cp := range test.Checkpoints {
				pa, err := a.Observe(cp)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := b.Observe(cp)
				if err != nil {
					t.Fatal(err)
				}
				if pa.TTFSec != pb.TTFSec || pa.CrashExpected != pb.CrashExpected {
					t.Fatalf("checkpoint %d: decoded model predicted %v, in-memory %v", i, pb.TTFSec, pa.TTFSec)
				}
			}

			// The model description (tree structure, leaf equations) must
			// survive the round trip too — it is the root-cause surface.
			if got.Description() != m.Description() {
				t.Fatalf("model description changed across the round trip")
			}
		})
	}
}

// TestDecodeModelRejectsCorruption walks the failure modes the envelope is
// designed to catch: wrong magic, wrong version, truncation, payload
// corruption and an over-large length field. Every case must error cleanly.
func TestDecodeModelRejectsCorruption(t *testing.T) {
	m := trainedOn(t, Config{Model: ModelLinearRegression})
	raw := encodeToBytes(t, m)

	corrupt := func(name string, mutate func(b []byte) []byte, wantSub string) {
		t.Run(name, func(t *testing.T) {
			b := mutate(append([]byte(nil), raw...))
			_, err := DecodeModel(bytes.NewReader(b))
			if err == nil {
				t.Fatalf("corrupt artifact decoded successfully")
			}
			if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
				t.Fatalf("error %q does not mention %q", err, wantSub)
			}
		})
	}
	corrupt("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic")
	corrupt("bad-version", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[4:], 99)
		return b
	}, "version 99")
	corrupt("truncated-header", func(b []byte) []byte { return b[:10] }, "header")
	corrupt("truncated-payload", func(b []byte) []byte { return b[:len(b)-7] }, "payload")
	corrupt("flipped-payload-bit", func(b []byte) []byte { b[20] ^= 0x40; return b }, "checksum")
	corrupt("oversized-length", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[8:], maxPayloadBytes+1)
		return b
	}, "limit")
	corrupt("empty", func(b []byte) []byte { return nil }, "")
}

// rewrap re-frames a mutated JSON payload with a fresh, valid envelope so the
// tests below reach the payload-level validation, not the checksum.
func rewrap(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, payload); err != nil {
		t.Fatalf("writeEnvelope: %v", err)
	}
	return buf.Bytes()
}

// mutatePayload decodes the artifact's payload JSON into a generic map,
// applies the mutation, and re-wraps it.
func mutatePayload(t *testing.T, raw []byte, mutate func(doc map[string]any)) []byte {
	t.Helper()
	n := binary.BigEndian.Uint32(raw[8:])
	var doc map[string]any
	if err := json.Unmarshal(raw[16:16+n], &doc); err != nil {
		t.Fatalf("unmarshal payload: %v", err)
	}
	mutate(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal payload: %v", err)
	}
	return rewrap(t, out)
}

// TestDecodeModelSchemaCompatibility pins the fail-fast schema checks: a
// schema name that is not registered, a column list that no longer matches
// what the schema generates, and a payload whose kind and snapshot disagree.
func TestDecodeModelSchemaCompatibility(t *testing.T) {
	m := trainedOn(t, Config{Model: ModelM5P})
	raw := encodeToBytes(t, m)

	t.Run("unknown-schema", func(t *testing.T) {
		b := mutatePayload(t, raw, func(doc map[string]any) { doc["schema"] = "no-such-schema" })
		_, err := DecodeModel(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "no-such-schema") {
			t.Fatalf("decode with unknown schema: %v", err)
		}
	})
	t.Run("drifted-attrs", func(t *testing.T) {
		b := mutatePayload(t, raw, func(doc map[string]any) {
			attrs := doc["attrs"].([]any)
			attrs[0] = "renamed_column"
		})
		_, err := DecodeModel(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "no longer generates") {
			t.Fatalf("decode with drifted attrs: %v", err)
		}
	})
	t.Run("kind-snapshot-mismatch", func(t *testing.T) {
		b := mutatePayload(t, raw, func(doc map[string]any) { doc["kind"] = "linreg" })
		_, err := DecodeModel(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("decode with mismatched kind succeeded")
		}
	})
	t.Run("no-snapshot", func(t *testing.T) {
		b := mutatePayload(t, raw, func(doc map[string]any) { delete(doc, "m5p") })
		_, err := DecodeModel(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "family snapshots") {
			t.Fatalf("decode without a snapshot: %v", err)
		}
	})
	t.Run("split-attr-out-of-range", func(t *testing.T) {
		b := mutatePayload(t, raw, func(doc map[string]any) {
			tree := doc["m5p"].(map[string]any)
			root := tree["root"].(map[string]any)
			if root["leaf"] != true {
				root["attr"] = float64(10000)
			}
		})
		if _, err := DecodeModel(bytes.NewReader(b)); err == nil {
			t.Fatalf("decode with out-of-range split attribute succeeded")
		}
	})
}

// TestEncodeRequiresRegisteredSchema pins the save-side guard: a model
// trained on a schema the registry cannot reproduce by name must refuse to
// encode instead of writing an artifact that can never load.
func TestEncodeRequiresRegisteredSchema(t *testing.T) {
	schema := features.NewSchemaBuilder("persist-unregistered", 12).
		Resource(features.ResourceDescriptor{
			Key: "old", LevelName: "old_used", Unit: "MB", Direction: features.Growing,
			Level: func(cp *monitor.Checkpoint) float64 { return cp.OldUsedMB },
		}).
		Raw("old_used_mb", "MB", func(cp *monitor.Checkpoint) float64 { return cp.OldUsedMB }).
		SpeedDerivatives("old").
		MustBuild()
	m, err := Train(Config{Schema: schema}, []*monitor.Series{
		leakSeries("train-a", 300, 2.0, 0.3),
		leakSeries("train-b", 400, 1.5, 0.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("Encode on an unregistered schema: %v", err)
	}
}

// TestGoldenModelFormat pins the serialized format of a deterministic
// "seed-1" model byte for byte: training on the fixed leakSeries streams is
// fully deterministic (no RNG anywhere in extraction or induction), so any
// byte-level change here is a format change and must be deliberate —
// regenerate with `go test -run TestGoldenModelFormat -update-golden` and
// bump FormatVersion if the layout changed incompatibly.
func TestGoldenModelFormat(t *testing.T) {
	m := trainedOn(t, Config{Model: ModelM5P})
	raw := encodeToBytes(t, m)
	golden := filepath.Join("testdata", "model_m5p_seed1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(raw))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(raw, want) {
		i := 0
		for i < len(raw) && i < len(want) && raw[i] == want[i] {
			i++
		}
		t.Fatalf("serialized model diverged from the golden format at byte %d (got %d bytes, want %d); if deliberate, regenerate with -update-golden", i, len(raw), len(want))
	}
	// The golden artifact must of course still load.
	if _, err := DecodeModel(bytes.NewReader(want)); err != nil {
		t.Fatalf("golden artifact does not decode: %v", err)
	}
}

// crc32SanityCheck keeps the import of hash/crc32 honest in this test file:
// the envelope checksum must actually be CRC-32 (IEEE) of the payload, which
// the flipped-bit corruption test above relies on.
func TestEnvelopeChecksumIsCRC32(t *testing.T) {
	m := trainedOn(t, Config{Model: ModelRegressionTree})
	raw := encodeToBytes(t, m)
	n := binary.BigEndian.Uint32(raw[8:])
	want := crc32.ChecksumIEEE(raw[16 : 16+n])
	if got := binary.BigEndian.Uint32(raw[12:]); got != want {
		t.Fatalf("header checksum %08x != CRC-32(payload) %08x", got, want)
	}
}

// deepTreeSeries is agingSeries' training runs plus four more crash runs at
// other loads and leak rates: enough data for a tree with dozens of internal
// nodes, so the fit queue keeps every worker busy.
func deepTreeSeries(t testing.TB) []*monitor.Series {
	t.Helper()
	train, _ := agingSeries(t)
	var cfgs []testbed.RunConfig
	for _, ebs := range []int{75, 125} {
		for _, leakN := range []int{15, 60} {
			cfgs = append(cfgs, testbed.RunConfig{
				Name:        "crash",
				Seed:        uint64(ebs + leakN),
				EBs:         ebs,
				Phases:      testbed.ConstantLeakPhases(leakN),
				MaxDuration: 4 * time.Hour,
			})
		}
	}
	crashes, err := testbed.RunMany(cfgs)
	if err != nil {
		t.Fatalf("building crash runs: %v", err)
	}
	return append(append([]*monitor.Series(nil), train...), crashes...)
}

// TestTrainDeterministicAcrossGOMAXPROCS pins that training's concurrent
// fan-out (sibling subtrees, the node-model fit queue) never shows in the
// result: the encoded model is byte-identical whether training runs on one
// goroutine or fans out across 2 or 8, on the small aging set and on one
// whose tree has at least 30 internal nodes.
func TestTrainDeterministicAcrossGOMAXPROCS(t *testing.T) {
	small, _ := agingSeries(t)
	for _, set := range []struct {
		name     string
		series   []*monitor.Series
		configs  []Config
		minInner int
	}{
		{"aging", small, []Config{
			{Model: ModelM5P},
			{Model: ModelM5P, LeafMaxAttrs: 4},
			{Model: ModelLinearRegression},
		}, 1},
		{"deep", deepTreeSeries(t), []Config{ // the fit queue is M5P's alone
			{Model: ModelM5P},
			{Model: ModelM5P, LeafMaxAttrs: 4},
		}, 30},
	} {
		for _, cfg := range set.configs {
			var want []byte
			for _, procs := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(procs)
				m, err := Train(cfg, set.series)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if inner := m.Report().InnerNodes; cfg.Model == ModelM5P && inner < set.minInner {
					t.Fatalf("%s set: tree has %d internal nodes, want at least %d", set.name, inner, set.minInner)
				}
				raw := encodeToBytes(t, m)
				if want == nil {
					want = raw
				} else if !bytes.Equal(raw, want) {
					t.Fatalf("%s set, %s (LeafMaxAttrs %d): GOMAXPROCS %d encodes differently from GOMAXPROCS 1",
						set.name, cfg.Model, cfg.LeafMaxAttrs, procs)
				}
			}
		}
	}
}
