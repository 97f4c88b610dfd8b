package smpi

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mat"
)

// FuzzMailboxMatching checks mailbox matching against a sequential model
// (ROADMAP 3(d)). data[0] picks the world size (2–5 ranks: rank 0 receives,
// the other ≤ 4 send); every later byte is one operation on one of ≤ 4
// sources × 3 tags — bit 7 set: rank 0 takes from that stream, clear: the
// source puts the operation's index on it. Takes that no put could ever
// satisfy are dropped (they would deadlock by construction, not by bug), and
// rank 0 drains what its program left over. The sources run concurrently
// with the receiver, so a take may find its message waiting, arrive first
// and park, or be passed over by puts on other streams — under every
// executor the values received per stream must be the model's, in order.
func FuzzMailboxMatching(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		data = data[:min(len(data), 65)]
		p := 2 + int(data[0])%4
		model := map[msgKey][]int{} // stream → values put, in send order
		puts := make([][]msgKey, p) // per source: its sends, in program order
		var takes []msgKey          // rank 0's receives, in program order
		for i, b := range data[1:] {
			k := msgKey{src: 1 + int(b&0x0f)%(p-1), tag: int(b>>4&0x07) % 3}
			if b&0x80 != 0 {
				takes = append(takes, k)
				continue
			}
			model[k] = append(model[k], i)
			puts[k.src] = append(puts[k.src], k)
		}
		// Keep the takes some put will answer, then drain the rest stream by
		// stream in a fixed order.
		taken := map[msgKey]int{}
		kept := takes[:0]
		for _, k := range takes {
			if taken[k] < len(model[k]) {
				taken[k]++
				kept = append(kept, k)
			}
		}
		for src := 1; src < p; src++ {
			for tag := 0; tag < 3; tag++ {
				k := msgKey{src: src, tag: tag}
				for ; taken[k] < len(model[k]); taken[k]++ {
					kept = append(kept, k)
				}
			}
		}
		for _, cfg := range abortConfigs() {
			w := NewWorld(p, false)
			cfg.World = w
			got := map[msgKey][]int{}
			_, err := Exec(context.Background(), cfg, func(c *Comm) error {
				if me := c.Rank(); me != 0 {
					sent := map[msgKey]int{}
					for _, k := range puts[me] {
						c.Send(0, k.tag, Msg{I: []int{model[k][sent[k]]}, N: 1})
						sent[k]++
					}
					return nil
				}
				for _, k := range kept {
					got[k] = append(got[k], c.Recv(k.src, k.tag).I[0])
				}
				return nil
			})
			name := abortConfigName(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k, want := range model {
				if !slices.Equal(got[k], want) {
					t.Errorf("%s: stream %+v received %v, model says %v", name, k, got[k], want)
				}
			}
			for r, mb := range w.boxes {
				if len(mb.pend) != 0 {
					t.Errorf("%s: rank %d mailbox still holds %d messages", name, r, len(mb.pend))
				}
			}
		}
	})
}

// FuzzSwapRows checks SwapRows against the message-by-message ping-pong it
// books (refSwapRows). data[0] picks the network — bits 0–1: flat,
// hier-contended or dragonfly-contended, each with a straggler and a
// degraded inter-node link —, bit 2 makes the follower reach the exchange
// first, bit 3 has a third rank raise both partners' clocks with traffic of
// its own first, and bit 4 picks which partner leads; every later byte is one
// part of 1–16 elements. The partners, ranks 0 and 4, sit on different nodes.
// Under every executor the recorded schedule and the report must be the
// reference's bit for bit, and both rows must come out exactly swapped.
func FuzzSwapRows(f *testing.F) {
	presets := []string{"flat", "hier-contended", "dragonfly-contended"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		data = data[:min(len(data), 33)]
		ctl := data[0]
		parts := make([]int, len(data)-1)
		total := 0
		for i, b := range data[1:] {
			parts[i] = 1 + int(b%16)
			total += parts[i]
		}
		const p, pad = 5, 3
		lead := 0
		if ctl&16 != 0 {
			lead = 4
		}
		tp := faultedTopology(t, presets[int(ctl&3)%3], p)
		exchange := func(x exchanges, cfg Config) outcome {
			w := NewWorld(p, true)
			w.Trace.SetTopology(tp)
			w.Trace.Record()
			cfg.World, cfg.Timeout = w, testTimeout
			_, err := Exec(context.Background(), cfg, func(c *Comm) error {
				me := c.Rank()
				c.SetPhase(fmt.Sprintf("rank%d", me))
				if ctl&8 != 0 {
					switch me {
					case 2:
						c.Send(0, 7, Msg{N: 64})
						c.Send(4, 7, Msg{N: 32})
					case 0, 4:
						c.Recv(2, 7)
					}
				}
				if me != 0 && me != 4 {
					return nil
				}
				peer := 4 - me
				if early := (me == lead) != (ctl&4 != 0); early {
					c.Send(peer, 8, Msg{N: 1})
				} else {
					c.Recv(peer, 8)
				}
				row := mat.New(1, pad+total)
				for j := range row.Cols {
					row.Set(0, j, float64(100*me+j))
				}
				x.swap(c, peer, 1, me == lead, row.View(0, pad, 1, total), parts)
				return checkSwapped(row, me, peer, total)
			})
			if err != nil {
				t.Fatalf("%s %s: %v", x.variant, abortConfigName(cfg), err)
			}
			return outcome{tl: w.Trace, report: w.Trace.Report()}
		}
		want := exchange(reference, Config{})
		for _, cfg := range abortConfigs() {
			got := exchange(booked, cfg)
			if d := got.tl.ScheduleDiff(want.tl); d != "" {
				t.Fatalf("%s: schedule differs from the reference: %s", abortConfigName(cfg), d)
			}
			if err := reportsEqual(want.report, got.report); err != nil {
				t.Fatalf("%s: %v", abortConfigName(cfg), err)
			}
		}
	})
}
