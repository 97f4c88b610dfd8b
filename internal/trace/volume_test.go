package trace

import (
	"strings"
	"sync"
	"testing"
)

// deliver books one matched delivery: the send, then the receive that
// matches its stamp.
func deliver(tl *Timeline, from, to int, bytes int64, phase string) {
	tl.RecordRecv(from, to, bytes, phase, tl.RecordSend(from, to, bytes, phase))
}

func TestTimelineVolumeBasics(t *testing.T) {
	tl := NewTimeline(3, DefaultMachine())
	deliver(tl, 0, 1, 100, "x")
	deliver(tl, 1, 2, 50, "y")
	deliver(tl, 0, 2, 25, "x")
	r := tl.Report()
	if r.TotalBytes() != 175 {
		t.Fatalf("total %d", r.TotalBytes())
	}
	if r.Sent[0] != 125 || r.Recv[2] != 75 {
		t.Fatalf("per-rank: %v / %v", r.Sent, r.Recv)
	}
	if r.ByPhase["x"] != 125 || r.ByPhase["y"] != 50 {
		t.Fatalf("phases: %v", r.ByPhase)
	}
	if r.MaxRankBytes() != 125 {
		t.Fatalf("max %d", r.MaxRankBytes())
	}
	if got := r.PerNodeBytes(); got != 175.0/3 {
		t.Fatalf("per-node %v", got)
	}
}

// Received bytes count when the receiver matches, not when the sender
// injects: a send nobody has matched yet (an aborted run's message in
// flight) is in Sent, Msgs and its phase, and in nobody's Recv.
func TestUnmatchedSendCountsSentNotRecv(t *testing.T) {
	tl := NewTimeline(2, DefaultMachine())
	st := tl.RecordSend(0, 1, 64, "x")
	tl.RecordSend(0, 1, 32, "x")
	r := tl.Report()
	if r.Sent[0] != 96 || r.Msgs[0] != 2 || r.ByPhase["x"] != 96 {
		t.Fatalf("sender side: sent %v msgs %v phases %v", r.Sent, r.Msgs, r.ByPhase)
	}
	if r.Recv[1] != 0 {
		t.Fatalf("unmatched sends counted as received: %v", r.Recv)
	}
	tl.RecordRecv(0, 1, 64, "x", st)
	if r := tl.Report(); r.Recv[1] != 64 || r.Sent[0] != 96 {
		t.Fatalf("after one match: sent %v recv %v, want 96 sent and 64 received", r.Sent, r.Recv)
	}
}

func TestPhaseMessageCounts(t *testing.T) {
	tl := NewTimeline(2, DefaultMachine())
	tl.RecordSend(0, 1, 10, "a")
	tl.RecordSend(0, 1, 10, "a")
	tl.RecordSend(1, 0, 10, "b")
	r := tl.Report()
	if r.PhaseMsgs["a"] != 2 || r.PhaseMsgs["b"] != 1 {
		t.Fatalf("phase msgs %v", r.PhaseMsgs)
	}
	if r.TotalMsgs() != 3 || r.Msgs[0] != 2 {
		t.Fatalf("msgs %v", r.Msgs)
	}
	if r.Time.MaxRankMsgs() != 2 {
		t.Fatalf("max-rank timed msgs %d", r.Time.MaxRankMsgs())
	}
}

func TestReportIsSnapshot(t *testing.T) {
	tl := NewTimeline(1, DefaultMachine())
	tl.RecordSend(0, 0, 10, "a")
	r := tl.Report()
	tl.RecordSend(0, 0, 10, "a")
	if r.TotalBytes() != 10 {
		t.Fatal("report mutated after snapshot")
	}
}

func TestConcurrentRecording(t *testing.T) {
	tl := NewTimeline(8, DefaultMachine())
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tl.RecordSend(rank, (rank+1)%8, 1, "p")
			}
		}(r)
	}
	wg.Wait()
	if got := tl.Report().TotalBytes(); got != 8000 {
		t.Fatalf("lost updates: %d", got)
	}
}

func TestPhasesSortedByVolume(t *testing.T) {
	tl := NewTimeline(1, DefaultMachine())
	tl.RecordSend(0, 0, 5, "small")
	tl.RecordSend(0, 0, 500, "big")
	tl.RecordSend(0, 0, 50, "mid")
	ph := tl.Report().Phases()
	if ph[0] != "big" || ph[1] != "mid" || ph[2] != "small" {
		t.Fatalf("order: %v", ph)
	}
}

func TestGBAndString(t *testing.T) {
	tl := NewTimeline(2, DefaultMachine())
	tl.RecordSend(0, 1, 2_000_000_000, "bulk")
	r := tl.Report()
	if r.TotalGB() != 2.0 {
		t.Fatalf("GB %v", r.TotalGB())
	}
	s := r.String()
	if !strings.Contains(s, "bulk") || !strings.Contains(s, "P=2") {
		t.Fatalf("string: %q", s)
	}
	if !strings.Contains(s, "makespan") {
		t.Fatalf("string missing timing summary: %q", s)
	}
}
