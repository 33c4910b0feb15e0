package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
	"repro/internal/wdm"
)

// Load shape of the daemon workloads. The offered load is fixed in Erlang,
// not in connections, so every rate sees the same network occupancy (and
// blocking): the mean holding time is erlang/rate.
const (
	daemonErlang = 30
	rerouteFrac  = 0.05
)

// daemon is one wdmd engine configured as the wdmd default (NSFNET, W=8,
// min-load-cost, shards = GOMAXPROCS, candidate tier off) behind its HTTP
// handler on a loopback listener.
type daemon struct {
	initial *wdm.Network
	e       *serve.Engine
	tg      *httpTarget
	srv     *http.Server
	served  chan error
	client  *http.Client
}

func startDaemon(journalCap int) (*daemon, error) {
	network, err := cli.BuildTopology("nsfnet", 0, 8, 0)
	if err != nil {
		return nil, err
	}
	d := &daemon{initial: network}
	d.e = serve.New(network, serve.Config{Algorithm: serve.AlgoMinLoadCost, JournalCap: journalCap})
	if err := d.e.Start(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.e.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.srv = &http.Server{Handler: d.e.Handler(nil)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	// At most nproc keep-alive connections: the client shares the host's
	// cores with the daemon, as a co-located front end would.
	nproc := runtime.GOMAXPROCS(0)
	d.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}
	d.tg = &httpTarget{c: d.client, base: "http://" + ln.Addr().String() + "/"}
	return d, nil
}

func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.srv.Close(); err != nil {
		return err
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http server: %w", err)
	}
	return d.e.Close()
}

// drain tears down whatever the phase left live (only an aborted phase
// leaves any) and checks the engine is empty.
func (d *daemon) drain() error {
	for _, id := range d.e.LiveIDs() {
		if resp := d.e.Teardown(id); !resp.Accepted {
			return violationf("drain: teardown of %d refused: %s", id, resp.Reason)
		}
	}
	if n := d.e.LiveConnections(); n != 0 {
		return violationf("drain: %d connections still live", n)
	}
	return nil
}

// audit is the end-of-run gate: oracle audit of the drained engine, and the
// engine's own counters agree with what the driver saw answered.
func (d *daemon) audit(provisions, accepted int64) error {
	if err := d.e.Audit(); err != nil {
		return violation{fmt.Errorf("engine audit: %w", err)}
	}
	st := d.e.Status()
	if st.Provisions != provisions || st.Accepted != accepted {
		return violationf("engine counted %d provisions / %d accepted, driver saw %d / %d",
			st.Provisions, st.Accepted, provisions, accepted)
	}
	return nil
}

// checkReplay re-executes the journal serially and compares the result with
// the engine's final state.
func (d *daemon) checkReplay() error {
	entries, truncated := d.e.Journal()
	if truncated || len(entries) == 0 {
		return violationf("journal truncated or empty (%d entries)", len(entries))
	}
	replayed, err := serve.Replay(d.initial, entries)
	if err != nil {
		return violation{fmt.Errorf("journal replay: %w", err)}
	}
	_, snap := d.e.Snapshot()
	for id := 0; id < snap.Links(); id++ {
		a, b := replayed.Link(id).Avail().Slice(), snap.Link(id).Avail().Slice()
		if !slices.Equal(a, b) {
			return violationf("journal replay differs from the engine on link %d", id)
		}
	}
	return nil
}

// httpTarget is the daemon as the open-loop driver sees it: its HTTP API.
// An error is a failed operation, unless it is a violation, which fails the
// whole run.
type httpTarget struct {
	c    *http.Client
	base string
}

func (h *httpTarget) do(kind opKind, id int64, src, dst int) (serve.Response, error) {
	req := serve.Request{ID: id}
	if kind == opProvision {
		req.Src, req.Dst = src, dst
	}
	body, err := json.Marshal(req)
	if err != nil {
		return serve.Response{}, err
	}
	resp, err := h.c.Post(h.base+kind.String(), "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Response{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return serve.Response{}, fmt.Errorf("%s %d: HTTP %d", kind, id, resp.StatusCode)
	}
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, violationf("%s %d: response does not decode: %v", kind, id, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // lets the connection be reused
	return out, nil
}

// daemonTrace is the seeded schedule of one phase.
func daemonTrace(seed int64, tag uint64, rate float64, window time.Duration) *trace {
	return genTrace(traceConfig{
		nodes: 14, rate: rate, erlang: daemonErlang, rerouteFrac: rerouteFrac,
		window: window.Seconds(), seed: subSeed(seed, tag),
	})
}

// totals accumulates what every phase of a run sent and saw, for the
// engine cross-check and the attempted/failed counts.
type totals struct {
	attempted, failed, provisions, accepted int64
}

func (t *totals) add(r *phaseResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	t.provisions += r.sentProvisions
	t.accepted += r.sentAccepted
}
