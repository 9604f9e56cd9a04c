package serve

import (
	"strings"
	"testing"

	"agingpred/internal/core"
	"agingpred/internal/fleet"
)

// TestPlayerCountsMismatches shows that the player's check can fail: replies
// from a server on one model, checked against another, are counted as
// mismatches with the first one named, and replies from an epoch with no
// reference are counted as skipped, never as verified.
func TestPlayerCountsMismatches(t *testing.T) {
	m1 := goldenModel(t)
	m2, err := fleet.TrainModel(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Model: m1})
	replay := func(refs map[uint32]*core.Model) *Player {
		t.Helper()
		conn, err := Dial(srv.TCPAddr(), "")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		p := NewPlayer(conn, 8, refs)
		if err := play(p, instance(7), 64); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("wrong model", func(t *testing.T) {
		p := replay(map[uint32]*core.Model{1: m2})
		if p.Mismatches == 0 || p.Verified != p.Predictions {
			t.Fatalf("model 1 checked against model 2: %d mismatches in %d verified of %d replies, want > 0 in all",
				p.Mismatches, p.Verified, p.Predictions)
		}
		if p.Mismatch == nil || !strings.HasPrefix(p.Mismatch.Error(), "seq ") || !strings.Contains(p.Mismatch.Error(), " epoch 1 mismatch: ") {
			t.Fatalf("first mismatch %v, want it named by seq and epoch", p.Mismatch)
		}
		if allVerified(p.Tally) == nil {
			t.Fatal("allVerified accepted a tally with mismatches")
		}
	})
	t.Run("no reference for the epoch", func(t *testing.T) {
		p := replay(map[uint32]*core.Model{2: m1})
		if p.Predictions == 0 || p.Skipped != p.Predictions || p.Verified != 0 || p.Mismatches != 0 {
			t.Fatalf("epoch-1 replies with only an epoch-2 reference: %d skipped, %d verified, %d mismatches of %d, want all skipped",
				p.Skipped, p.Verified, p.Mismatches, p.Predictions)
		}
		if allVerified(p.Tally) == nil {
			t.Fatal("allVerified accepted a tally with skipped replies")
		}
	})
}
