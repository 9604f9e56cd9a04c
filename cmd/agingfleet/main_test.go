package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONReportByteIdentical pins the same-seed contract at the command's
// surface: two -json runs at one seed write the same stdout bytes, frozen and
// adaptive (with retrains and epoch swaps), while the wall-clock-bearing
// metrics snapshot goes to stderr. The process-wide metrics keep counting
// across the runs, so a report that read them would differ.
func TestJSONReportByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"frozen", []string{"-instances", "40", "-duration", "3h", "-seed", "11", "-shards", "2", "-json"}},
		{"adaptive", []string{"-instances", "40", "-duration", "6h", "-seed", "11", "-shards", "2", "-json",
			"-adaptive", "-drift-baseline", "1s"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outs [2]bytes.Buffer
			for i := range outs {
				var stderr bytes.Buffer
				if err := run(tc.args, &outs[i], &stderr); err != nil {
					t.Fatalf("run %d: %v\n%s", i, err, stderr.String())
				}
				if !strings.Contains(stderr.String(), "\nmetrics: {") {
					t.Fatalf("run %d: no metrics snapshot line on stderr:\n%s", i, stderr.String())
				}
			}
			if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
				t.Fatalf("same seed, different -json bytes:\n%s\n---\n%s", outs[0].String(), outs[1].String())
			}
			var rep map[string]any
			if err := json.Unmarshal(outs[0].Bytes(), &rep); err != nil {
				t.Fatalf("stdout is not one JSON report: %v", err)
			}
			if _, ok := rep["metrics"]; ok {
				t.Fatalf("the report embeds the metrics snapshot")
			}
			if tc.name == "adaptive" && rep["retrains"].(float64) == 0 {
				t.Fatalf("adaptive run never retrained; the test covers no epoch swap")
			}
		})
	}
}
