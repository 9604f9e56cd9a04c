package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/serve"
)

// golden is the committed seed-1 artifact the CI socket smokes serve.
var golden = filepath.Join("..", "..", "internal", "core", "testdata", "model_m5p_seed1.golden")

// verifiedRe matches the verification result line.
var verifiedRe = regexp.MustCompile(`agingload: verified (\d+) sampled predictions bit-for-bit: (\d+) mismatches \((\d+) skipped after epoch swap\)`)

// TestRunVerifiesAgainstServer runs the load generator against an in-process
// daemon on loopback serving the golden model, on both transports and as a
// connection sweep, and checks that every prediction was verified bit for
// bit with no mismatches.
func TestRunVerifiesAgainstServer(t *testing.T) {
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.DecodeModel(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.Start(serve.Config{Model: model, TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	common := []string{"-instances", "8", "-duration", "1h", "-window", "8", "-verify-every", "1", "-load", golden}
	for _, tc := range []struct {
		name   string
		args   []string
		points int
	}{
		{"binary", []string{"-addr", srv.TCPAddr(), "-transport", "binary", "-conns", "2"}, 1},
		{"http", []string{"-addr", srv.HTTPAddr(), "-transport", "http", "-conns", "2"}, 1},
		{"sweep", []string{"-addr", srv.TCPAddr(), "-transport", "binary", "-sweep", "1,2"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(append(tc.args, common...), &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			lines := verifiedRe.FindAllStringSubmatch(out.String(), -1)
			if len(lines) != tc.points {
				t.Fatalf("%d verification lines, want %d:\n%s", len(lines), tc.points, out.String())
			}
			for _, m := range lines {
				verified, _ := strconv.Atoi(m[1])
				if verified == 0 || m[2] != "0" || m[3] != "0" {
					t.Fatalf("verified %s, %s mismatches, %s skipped; want > 0, 0, 0:\n%s", m[1], m[2], m[3], out.String())
				}
			}
			if n := strings.Count(out.String(), " cps, latency p50 "); n != tc.points {
				t.Fatalf("%d result lines, want %d:\n%s", n, tc.points, out.String())
			}
		})
	}
}

// TestRunFailsOnMismatch points the reference at the golden model while the
// daemon serves another: the run must fail and name the first mismatch.
func TestRunFailsOnMismatch(t *testing.T) {
	other, err := fleet.TrainModel(2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.Start(serve.Config{Model: other, TCPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var out strings.Builder
	err = run([]string{"-addr", srv.TCPAddr(), "-instances", "2", "-conns", "1", "-duration", "1h", "-verify-every", "1", "-load", golden}, &out)
	if err == nil || !strings.Contains(err.Error(), "did not match the local reference") {
		t.Fatalf("run against a different model: got %v, want a mismatch failure\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), " mismatch: got (") {
		t.Fatalf("first mismatch not printed:\n%s", out.String())
	}
}
