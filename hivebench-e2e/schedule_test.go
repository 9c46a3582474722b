package main

import "testing"

func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := BuildSchedule(w, 7, 2).Digest()
		b := BuildSchedule(w, 7, 2).Digest()
		c := BuildSchedule(w, 8, 2).Digest()
		if a != b {
			t.Errorf("%s: seed 7 gave two digests %s and %s", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.Name, a)
		}
	}
}

func TestScheduleExactMix(t *testing.T) {
	for _, w := range workloads {
		s := BuildSchedule(w, 3, 2)
		total := 0
		for _, m := range w.Mix {
			total += m.weight
		}
		counts := map[Kind]int{}
		for _, op := range s.Open {
			counts[op.Kind]++
		}
		for _, m := range w.Mix {
			want := float64(len(s.Open)*m.weight) / float64(total)
			if got := float64(counts[m.kind]); got < want-1 || got > want+1 {
				t.Errorf("%s: %d %s ops in the open loop, want %.1f", w.Name, counts[m.kind], m.kind, want)
			}
		}
		for i := 1; i < len(s.Open); i++ {
			if s.Open[i].Due <= s.Open[i-1].Due {
				t.Fatalf("%s: op %d due at %v, not after %v", w.Name, i, s.Open[i].Due, s.Open[i-1].Due)
			}
		}
	}
}

func TestScheduleUniqueWrites(t *testing.T) {
	for _, w := range workloads {
		s := BuildSchedule(w, 5, 2)
		ids := map[string]bool{}
		tokens := map[string]bool{}
		follows := map[[2]string]bool{}
		for _, phase := range [][]Op{s.Open, s.Closed} {
			for _, op := range phase {
				var id string
				switch {
				case op.Paper != nil:
					id = op.Paper.ID
					if tokens[op.Token] {
						t.Errorf("%s: probe token %s minted twice", w.Name, op.Token)
					}
					tokens[op.Token] = true
				case op.Comment != nil:
					id = op.Comment.ID
				case op.Question != nil:
					id = op.Question.ID
				case op.Answer != nil:
					id = op.Answer.ID
				case op.Kind == KFollow:
					pair := [2]string{op.User, op.Other}
					if follows[pair] {
						t.Errorf("%s: follow %v scheduled twice", w.Name, pair)
					}
					follows[pair] = true
				}
				if id != "" {
					if ids[id] {
						t.Errorf("%s: entity id %s minted twice", w.Name, id)
					}
					ids[id] = true
				}
			}
		}
	}
}
