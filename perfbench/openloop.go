package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// violation marks an output that breaks the correctness gate: a response
// that does not decode, carries another request's ID, or gives a reason the
// driver can never provoke.
type violation struct{ error }

func violationf(format string, args ...any) error {
	return violation{fmt.Errorf(format, args...)}
}

// outcome of one executed operation.
type outcome uint8

const (
	outSkipped  outcome = iota // teardown/reroute of a connection that was never established
	outOK                      // accepted (or a reroute that kept its old pair)
	outBlocked                 // provision refused with no-route: the paper's blocking
	outFailed                  // transport error, non-200, conflict-exhausted, engine-closed, refused teardown
	outAccepted                // provision accepted
)

// classify checks one response against the gate and sorts it.
func classify(kind opKind, id int64, resp serve.Response) (outcome, error) {
	if resp.ID != id || resp.Op != kind.String() {
		return 0, violationf("%s %d answered as %s %d", kind, id, resp.Op, resp.ID)
	}
	if resp.Accepted {
		if kind == opProvision {
			if resp.Cost <= 0 || len(resp.Primary) == 0 || len(resp.Backup) == 0 {
				return 0, violationf("provision %d accepted without a costed primary and backup", id)
			}
			return outAccepted, nil
		}
		return outOK, nil
	}
	switch resp.Reason {
	case serve.ReasonNoRoute:
		if kind == opProvision {
			return outBlocked, nil
		}
		if kind == opReroute {
			return outOK, nil // the connection keeps its old pair
		}
	case serve.ReasonConflict, serve.ReasonClosed, serve.ReasonUnknownConn:
		return outFailed, nil
	}
	return 0, violationf("%s %d refused with unexpected reason %q", kind, id, resp.Reason)
}

// phaseConfig bounds one open-loop phase.
type phaseConfig struct {
	idBase      int64         // connection IDs are idBase+index, unique per phase
	warmup      time.Duration // ops due before this are executed but not measured
	window      time.Duration // arrivals fall in [0, window)
	inflightCap int64         // stop dispatching when more ops than this are in flight (0 = no cap)
	qwindow     time.Duration // width of the windows a tail quantile is taken over
}

// phaseResult holds one phase's kept samples and counts. Timings cover ops
// due in [warmup, window), a failed provision counting as infinitely late;
// attempted/failed cover every op executed.
type phaseResult struct {
	lat        [3]timing   // per opKind, due-to-reply
	win        [3][]timing // the same samples split by due time into qwindow windows
	all        timing      // every executed op, for the closure row
	lag        timing      // dispatch instant minus due instant, every dispatched op
	provisions int64       // measured provisions
	blocked    int64
	accepted   int64
	costSum    float64
	attempted  int64
	failed     int64
	// every executed provision and acceptance, warm-up and tail included,
	// as the engine's own counters see them
	sentProvisions, sentAccepted int64
	provEnd                      time.Duration // last reply to a measured provision
	inflightMax                  int64
	aborted                      bool
	heapMB                       float64 // peak live heap while ops ran
}

// connState chains the ops of one connection: each op waits for the
// previous one, so a teardown never overtakes its own provision. Fields are
// handed from op to op through the done channel.
type connState struct {
	done   chan struct{}
	live   bool
	freeAt time.Duration // when the previous op on this connection replied
}

// runPhase drives tg with the trace in open loop: each op is issued at its
// due instant regardless of replies, and timed from that instant, or from
// the previous reply on the same connection when that came later.
func runPhase(tg *httpTarget, tr *trace, pc phaseConfig) (*phaseResult, error) {
	p, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer p.close()

	n := len(tr.events)
	lat := make([]time.Duration, n)
	outs := make([]outcome, n)
	costs := make([]float64, n)
	lag := make([]time.Duration, 0, n)
	conns := make([]connState, len(tr.conns))
	closed := make(chan struct{})
	close(closed)
	for i := range conns {
		conns[i].done = closed
	}

	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	res := &phaseResult{}
	heap := watchHeap()
	start := time.Now()
	dispatched := 0
	for i, ev := range tr.events {
		if err := p.waitUntil(start, ev.due); err != nil {
			return nil, err
		}
		lag = append(lag, time.Since(start)-ev.due)
		in := inflight.Add(1)
		if in > res.inflightMax {
			res.inflightMax = in
		}
		if pc.inflightCap > 0 && in > pc.inflightCap {
			inflight.Add(-1)
			res.aborted = true
			break
		}
		cs := &conns[ev.conn]
		prev, next := cs.done, make(chan struct{})
		cs.done = next
		dispatched = i + 1
		wg.Add(1)
		go func(i int, ev event, cs *connState, prev, next chan struct{}) {
			defer wg.Done()
			defer inflight.Add(-1)
			defer close(next)
			<-prev
			if ev.kind != opProvision && !cs.live {
				return // outSkipped
			}
			due := max(ev.due, cs.freeAt)
			c := tr.conns[ev.conn]
			id := pc.idBase + int64(ev.conn)
			resp, err := tg.do(ev.kind, id, int(c.src), int(c.dst))
			end := time.Since(start)
			cs.freeAt = end
			lat[i] = end - due
			out := outFailed
			if err == nil {
				out, err = classify(ev.kind, id, resp)
			}
			if v := (violation{}); errors.As(err, &v) {
				errMu.Lock()
				if firstErr == nil {
					firstErr = v
				}
				errMu.Unlock()
				return
			}
			outs[i] = out
			switch {
			case out == outAccepted:
				cs.live = true
				costs[i] = resp.Cost
			case ev.kind == opTeardown && out == outOK:
				cs.live = false
			}
		}(i, ev, cs, prev, next)
	}
	wg.Wait()
	res.heapMB = heap.mb()
	if firstErr != nil {
		return nil, firstErr
	}

	for i, ev := range tr.events[:dispatched] {
		out := outs[i]
		if out == outSkipped {
			continue
		}
		res.attempted++
		if out == outFailed {
			res.failed++
		}
		res.all = append(res.all, int64(lat[i]))
		if ev.kind == opProvision {
			res.sentProvisions++
			if out == outAccepted {
				res.sentAccepted++
			}
		}
		if ev.due < pc.warmup || ev.due >= pc.window {
			continue
		}
		l := int64(lat[i])
		if out == outFailed && ev.kind == opProvision {
			l = math.MaxInt64 // a refused provision misses any latency limit
		}
		res.lat[ev.kind] = append(res.lat[ev.kind], l)
		w := int((ev.due - pc.warmup) / pc.qwindow)
		for len(res.win[ev.kind]) <= w {
			res.win[ev.kind] = append(res.win[ev.kind], nil)
		}
		res.win[ev.kind][w] = append(res.win[ev.kind][w], l)
		if ev.kind == opProvision {
			res.provisions++
			res.provEnd = max(res.provEnd, ev.due+lat[i])
			switch out {
			case outBlocked:
				res.blocked++
			case outAccepted:
				res.accepted++
				res.costSum += costs[i]
			}
		}
	}
	for _, l := range lag {
		res.lag = append(res.lag, int64(l))
	}
	for k := range res.lat {
		res.lat[k] = res.lat[k].sorted()
	}
	res.lag = res.lag.sorted()
	return res, nil
}
