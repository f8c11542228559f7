package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/httpapi"
	"vcsched/internal/resilient"
	"vcsched/internal/router"
	"vcsched/internal/sched"
	"vcsched/internal/service"
	"vcsched/internal/vcclient"
)

// The served path is sized for a two-core host: two vcschedd shards
// with one worker each behind one vcrouter, all in this process on
// loopback listeners.
const fleetShards = 2

// fleetProcesses is how many processes the in-process fleet stands
// for: the client, the router and the shards. Deployed, each would
// have its own heap and its own minimum heap goal (4 MB at the default
// GOGC of 100). Here they share one collector, so startFleet raises
// GOGC by this factor. Otherwise the fleet's small live heap would
// have a quarter of the headroom it has deployed, and the collector
// would run four times as often.
const fleetProcesses = fleetShards + 2

// fleet is the served path the service workloads drive:
// vcclient → vcrouter → vcschedd shards → degradation ladder.
type fleet struct {
	svcs       []*service.Service
	servers    []*http.Server // shards first, router last
	serving    sync.WaitGroup
	router     *router.Router
	client     *vcclient.Client
	transports []*http.Transport
}

// startFleet starts the shards, the router and the client. With a
// recorder the shard and router handlers and the router's forwards are
// wrapped in spans (recorded only while the recorder is on); without
// one the handlers are exactly the daemon's (httpapi.SchedulerMux) and
// the router's (router.Mux).
func startFleet(rec *recorder, steps int) (*fleet, error) {
	debug.SetGCPercent(100 * fleetProcesses)
	f := &fleet{}
	defaults := httpapi.Defaults{MachineKey: "2c1l", PinSeed: 1, MaxSteps: steps}
	var urls []string
	for i := 0; i < fleetShards; i++ {
		svc := service.New(service.Config{
			Workers: 1,
			Ladder:  resilient.Options{Core: core.Options{MaxSteps: steps}},
		})
		f.svcs = append(f.svcs, svc)
		url, err := f.serve(shardHandler(svc, defaults, rec))
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	var forward http.RoundTripper = f.transport()
	if rec != nil {
		forward = forwardTracer{rec: rec, next: forward}
	}
	r, err := router.New(router.Config{
		Backends:   urls,
		Defaults:   defaults,
		Client:     vcclient.Config{HTTPClient: &http.Client{Transport: forward}},
		HTTPClient: &http.Client{Transport: f.transport(), Timeout: 2 * time.Second},
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting router: %w", err)
	}
	f.router = r
	url, err := f.serve(routerHandler(r, rec))
	if err != nil {
		f.close()
		return nil, err
	}
	f.client, err = vcclient.New(vcclient.Config{
		BaseURL:    url,
		HTTPClient: &http.Client{Transport: f.transport()},
		Retries:    2,
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting client: %w", err)
	}
	return f, nil
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *fleet) transport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	f.transports = append(f.transports, t)
	return t
}

// close stops the router's health pollers, the listeners and the
// shards' worker pools, and waits for each to end.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].Close()
	}
	f.serving.Wait()
	for _, svc := range f.svcs {
		svc.Close()
	}
	for _, t := range f.transports {
		t.CloseIdleConnections()
	}
}

// fleetCounts is a snapshot of the counters the layers keep.
type fleetCounts struct {
	svc          service.Stats // merged over the shards
	routerCoal   int64
	routerTries  int64
	routerErrors int64
	client       vcclient.Stats
}

func (f *fleet) counts() fleetCounts {
	snaps := make([]service.Stats, 0, len(f.svcs))
	for _, svc := range f.svcs {
		snaps = append(snaps, svc.Stats())
	}
	rs := f.router.Stats()
	c := fleetCounts{
		svc:         service.MergeStats(snaps...),
		routerCoal:  rs.Coalesced,
		routerTries: rs.Client.Tries,
		client:      f.client.Stats(),
	}
	for _, sh := range rs.PerShard {
		c.routerErrors += sh.Errors
	}
	return c
}

// since returns the counter growth from an earlier snapshot.
func (c fleetCounts) since(o fleetCounts) fleetCounts {
	d := c
	d.svc.Requests -= o.svc.Requests
	d.svc.CacheHits -= o.svc.CacheHits
	d.svc.CacheMisses -= o.svc.CacheMisses
	d.svc.Coalesced -= o.svc.Coalesced
	d.svc.Shed -= o.svc.Shed
	d.svc.QueueTimeouts -= o.svc.QueueTimeouts
	d.svc.Scheduled -= o.svc.Scheduled
	d.routerCoal -= o.routerCoal
	d.routerTries -= o.routerTries
	d.routerErrors -= o.routerErrors
	d.client.Tries -= o.client.Tries
	d.client.Retries -= o.client.Retries
	d.client.Sheds -= o.client.Sheds
	return d
}

// shardHandler is the daemon's handler. With a recorder it is the same
// sequence of httpapi and service calls httpapi.SchedulerMux makes,
// each wrapped in a span, plus one extra service.Fingerprint call per
// block so that fingerprinting gets a span of its own.
func shardHandler(svc *service.Service, d httpapi.Defaults, rec *recorder) http.Handler {
	plain := httpapi.SchedulerMux(svc, d)
	if rec == nil {
		return plain
	}
	mux := http.NewServeMux()
	mux.Handle("/", plain)
	mux.HandleFunc("/v1/schedule", func(w http.ResponseWriter, r *http.Request) {
		if !rec.active() || r.Method != http.MethodPost {
			plain.ServeHTTP(w, r)
			return
		}
		defer rec.begin("shard").end()
		sp := rec.begin("httpapi.decode")
		wreq, ok := httpapi.DecodeWireRequest(w, r)
		sp.end()
		if !ok {
			return
		}
		sp = rec.begin("httpapi.build_requests")
		reqs, err := httpapi.BuildRequests(wreq, d)
		sp.end()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, req := range reqs {
			sp = rec.begin("service.fingerprint")
			service.Fingerprint(req)
			sp.end()
		}
		sp = rec.begin("service.submit")
		results := svc.SubmitBatch(reqs)
		if len(results) == 1 && results[0].CacheHit {
			sp.endAs("service.submit_hit")
		} else {
			sp.endAs("service.submit_miss")
		}
		sp = rec.begin("httpapi.write_response")
		httpapi.WriteScheduleResponse(w, service.BuildWireResponse(results), svc.RetryAfter)
		sp.end()
	})
	return mux
}

// routerHandler is router.Mux, with a span around each schedule call
// when a recorder is on.
func routerHandler(r *router.Router, rec *recorder) http.Handler {
	mux := r.Mux()
	if rec == nil {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/schedule" {
			defer rec.begin("router").end()
		}
		mux.ServeHTTP(w, req)
	})
}

// forwardTracer spans each router-to-shard exchange, from sending the
// request until the router has closed the response body.
type forwardTracer struct {
	rec  *recorder
	next http.RoundTripper
}

func (t forwardTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.rec.begin("router.forward")
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp   openSpan
	once sync.Once
}

func (b *spanBody) Close() error {
	b.once.Do(b.sp.end)
	return b.ReadCloser.Close()
}

// wire is the request the client sends for one block.
func wire(b block, pinSeed int64, timeout time.Duration, steps int) service.WireRequest {
	return service.WireRequest{
		Blocks:    []string{b.text},
		Machine:   b.m.Key(),
		PinSeed:   pinSeed,
		TimeoutMS: timeout.Milliseconds(),
		MaxSteps:  steps,
	}
}

// checkServed re-validates one served schedule against the block that
// was sent: the text must parse as a schedule of that block on that
// machine with the requested pins, pass sched.Validate, have the AWCT
// the response claims, and serialize back to the same bytes.
func checkServed(b block, rep reply) (service.WireResult, error) {
	if rep.err != nil {
		return service.WireResult{}, fmt.Errorf("%s: transport: %w", b.key(), rep.err)
	}
	if len(rep.resp.Results) != 1 {
		return service.WireResult{}, fmt.Errorf("%s: %d results for one block", b.key(), len(rep.resp.Results))
	}
	r := rep.resp.Results[0]
	switch {
	case r.Shed:
		return r, fmt.Errorf("%s: shed", b.key())
	case r.HardFailure || r.Error != "":
		return r, fmt.Errorf("%s: failed (%s): %s", b.key(), r.Taxonomy, r.Error)
	}
	s, perr := sched.ReadSchedule(strings.NewReader(r.Schedule), b.sb, b.m)
	if perr != nil {
		return r, fmt.Errorf("%s: unreadable schedule: %w", b.key(), perr)
	}
	if verr := s.Validate(); verr != nil {
		return r, fmt.Errorf("%s: invalid schedule (tier %s): %w", b.key(), r.Tier, verr)
	}
	if a := s.AWCT(); math.Abs(a-r.AWCT) > 1e-9*math.Max(1, a) {
		return r, fmt.Errorf("%s: response claims AWCT %v, schedule has %v", b.key(), r.AWCT, a)
	}
	if !slices.Equal(s.Pins.LiveIn, b.pins.LiveIn) || !slices.Equal(s.Pins.LiveOut, b.pins.LiveOut) {
		return r, fmt.Errorf("%s: schedule pins %v, requested %v", b.key(), s.Pins, b.pins)
	}
	var text strings.Builder
	if werr := s.WriteText(&text); werr != nil || text.String() != r.Schedule {
		return r, fmt.Errorf("%s: schedule text does not round-trip", b.key())
	}
	return r, nil
}

// sameBytes is the warm ≡ cold check: a result served from the cache
// (or coalesced) must carry the bytes of the cold computation.
func sameBytes(a, b service.WireResult) bool {
	return a.Fingerprint == b.Fingerprint && a.Tier == b.Tier && a.AWCT == b.AWCT &&
		a.ExitCycles == b.ExitCycles && a.Schedule == b.Schedule
}
