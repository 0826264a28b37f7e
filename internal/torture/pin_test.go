package torture

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCampaignLogPinned pins the simulated behaviour of all five systems
// under crash, tear, crash-during-recovery, generation fallback and media
// faults: the SHA-256 of four campaigns' logs, 20 schedules per system
// each. A log line carries a schedule's checkpoint, crash, match, restart,
// tear and verdict counts and its final cycle, so a recovery that issues
// one write at a different cycle, allocates one slot elsewhere or refuses
// differently moves the digest. None of the 400 schedules violates. The
// constant was captured before the three schemes' recovery procedures
// were folded into one driver (commit.(*Meta).Recover), which must leave
// every log byte unchanged.
func TestCampaignLogPinned(t *testing.T) {
	const want = "4854ecaf2a03dc8c7e4cf2a48003fd4f85c8d8fb13715e36fd18bda7d6a2a577"
	h := sha256.New()
	for _, g := range []GenConfig{
		{Seed: 11},
		{Seed: 12, Gens: 4},
		{Seed: 13, Gens: 4, Media: &MediaFault{Kind: "bitrot", Seed: 0, Count: 24}},
		{Seed: 14, Gens: 3, Media: &MediaFault{Kind: "dead", Seed: 0, Count: 1}},
	} {
		g.Schedules = 20
		res, err := RunCampaign(CampaignConfig{Gen: g, Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: %d violation(s):\n%s", g.Seed, len(res.Violations), res.Log)
		}
		h.Write([]byte(res.Log))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("campaign log digest = %s, want %s: the simulated behaviour of some system moved", got, want)
	}
}
