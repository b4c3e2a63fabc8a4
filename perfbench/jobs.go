package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/service"
)

// The jobs-inproc and jobs-http workloads: clients share one tenant of a
// service (Sharded-FAA) that holds a standing backlog, and loop Submit →
// Lease → settle. The settle is Ack, except that about one first delivery
// in nackEvery is Nacked; redeliveries are always Acked. A cycle that nacks
// leases again and acks that job, so every cycle submits one job and acks
// one and the backlog stays level. jobs-http sends the same mix over
// loopback HTTP to service.Handler, one keep-alive connection per client.
//
// The service runs the default config except for the lease TTL. A settled
// lease's entry stays in the service's deadline heap until its TTL passes,
// so at a few hundred thousand leases per second the default 30s TTL grows
// that heap by hundreds of megabytes over one run; jobsLeaseTTL keeps it
// near 25 MB. The deadline scan then runs every jobsLeaseTTL/4, which is
// when a nacked job is queued again, so about nack rate × 0.6s jobs sit
// undelivered. The backlog is sized well above that, and nacks pause while
// nackCap nacked jobs are undelivered, so a much faster service lowers the
// nack share instead of draining the queue.
const (
	jobsTenant       = "bench"
	jobsLeaseTTL     = 2 * time.Second
	jobsBacklog      = 60000 // below the default 65536 in-flight quota
	nackCap          = jobsBacklog / 2
	jobsPayloads     = 1024
	nackEvery        = 16
	inprocSpanStride = 1024 // mean cycles between traced cycles (traced phase)
	httpSpanStride   = 16
	linkHeader       = "X-Perfbench-Span"
)

var (
	errEmptyLease = errors.New("lease came back empty while the backlog stands")
	errPayload    = errors.New("leased payload differs from every submitted payload")
)

// jobAPI is how a client reaches the service: in process or over HTTP.
// link, when non-empty, ties the server's handler span to the caller's.
type jobAPI interface {
	submit(payload json.RawMessage, link string) (uint64, error)
	lease(link string) (service.Lease, bool, error)
	settle(token uint64, nack bool, link string) error
}

// ledger is one client's record of what it did, checked against the
// service when the run ends. Padded so two clients' ledgers never share a
// cache line.
type ledger struct {
	_                    [64]byte
	submitted, acked     tally // job ids
	leases, empty, nacks uint64
	_                    [64]byte
}

type jobsSystem struct {
	epoch    time.Time
	svc      *service.Service
	rec      *obs.Stats
	payloads []json.RawMessage
	apis     []jobAPI
	front    *httpFront // nil in process
	names    [numOps]string

	backlog     tally // ids submitted during set-up
	ledgers     []ledger
	outstanding atomic.Int64          // nacked jobs not yet leased again
	stats       service.StatsSnapshot // taken by verify
}

// makePayloads generates the seeded job payloads: a small JSON object
// carrying its own index and random hex bytes, so a leased payload can be
// checked against what was submitted without parsing JSON.
func makePayloads(seed uint64) []json.RawMessage {
	r := newRNG(seed, 1000)
	out := make([]json.RawMessage, jobsPayloads)
	raw := make([]byte, 24)
	for i := range out {
		for k := range raw {
			raw[k] = byte(r.next())
		}
		out[i] = json.RawMessage(`{"i":` + strconv.Itoa(i) + `,"d":"` + hex.EncodeToString(raw) + `"}`)
	}
	return out
}

func (s *jobsSystem) payloadOK(p json.RawMessage) bool {
	rest, ok := bytes.CutPrefix(p, []byte(`{"i":`))
	if !ok {
		return false
	}
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return false
	}
	i, err := strconv.Atoi(string(rest[:end]))
	return err == nil && i >= 0 && i < len(s.payloads) && bytes.Equal(p, s.payloads[i])
}

func buildJobs(overHTTP, traced bool, seed uint64) (system, error) {
	s := &jobsSystem{epoch: time.Now(), rec: obs.New(), payloads: makePayloads(seed), ledgers: make([]ledger, clients)}
	svc, err := service.New(service.Config{Recorder: s.rec, LeaseTTL: jobsLeaseTTL})
	if err != nil {
		return nil, err
	}
	s.svc = svc
	for k := 0; k < jobsBacklog; k++ {
		j, err := svc.Submit(jobsTenant, s.payloads[k%len(s.payloads)])
		if err != nil {
			s.close()
			return nil, fmt.Errorf("submitting backlog: %w", err)
		}
		s.backlog.add(j.ID)
	}
	prefix := "service."
	if overHTTP {
		prefix = "http."
		if s.front, err = startHTTP(svc, traced, s.epoch); err != nil {
			s.close()
			return nil, err
		}
		for _, c := range s.front.clients {
			s.apis = append(s.apis, c)
		}
	} else {
		for i := 0; i < clients; i++ {
			s.apis = append(s.apis, inproc{svc})
		}
	}
	s.names = [numOps]string{opSubmit: prefix + "submit", opLease: prefix + "lease", opAck: prefix + "ack", opNack: prefix + "nack"}
	return s, nil
}

func (s *jobsSystem) now() int64 { return int64(time.Since(s.epoch)) }

func (s *jobsSystem) linkFor(on bool, unit uint64, call uint32, tid int) string {
	if !on || s.front == nil {
		return ""
	}
	return link(unit, call, tid)
}

func (s *jobsSystem) unit(w *worker, st *winStats) {
	api, lg := s.apis[w.id], &s.ledgers[w.id]
	unit, spanOn := w.sampleSpan()
	call := spanUnit
	p := s.payloads[w.rng.next()%uint64(len(s.payloads))]

	t0 := s.now()
	call++
	id, err := api.submit(p, s.linkFor(spanOn, unit, call, w.id))
	s.timed(w, opSubmit, unit, spanOn, call, t0)
	if err != nil {
		w.fail(fmt.Errorf("submit: %w", err))
		return
	}
	lg.submitted.add(id)

	for nacked := false; ; nacked = true {
		call++
		start := s.callStart(w)
		l, ok, err := api.lease(s.linkFor(spanOn, unit, call, w.id))
		s.timed(w, opLease, unit, spanOn, call, start)
		if err != nil {
			w.fail(fmt.Errorf("lease: %w", err))
			return
		}
		if !ok {
			lg.empty++
			w.fail(errEmptyLease)
			return
		}
		lg.leases++
		if l.Attempts > 1 {
			s.outstanding.Add(-1)
		}
		if !s.payloadOK(l.Payload) {
			w.fail(fmt.Errorf("job %d: %w", l.ID, errPayload))
		}
		nack := !nacked && l.Attempts == 1 && w.rng.next()%nackEvery == 0 && s.outstanding.Load() < nackCap
		op := opAck
		if nack {
			op = opNack
		}
		call++
		start = s.callStart(w)
		err = api.settle(l.Token, nack, s.linkFor(spanOn, unit, call, w.id))
		s.timed(w, op, unit, spanOn, call, start)
		if err != nil {
			w.fail(fmt.Errorf("settling job %d: %w", l.ID, err))
			return
		}
		if !nack {
			lg.acked.add(l.ID)
			break
		}
		lg.nacks++
		s.outstanding.Add(1)
	}
	end := s.now()
	st.lat.add(end - t0)
	if spanOn {
		w.span("cycle", unit, spanUnit, 0, t0, end)
	}
}

// callStart reads the clock before a call in a traced phase; untraced
// cycles read it only at their start and end.
func (s *jobsSystem) callStart(w *worker) int64 {
	if w.traced {
		return s.now()
	}
	return 0
}

// timed closes a call that started at start: in a traced phase it records
// the call's latency, and its span when the unit is sampled.
func (s *jobsSystem) timed(w *worker, op int, unit uint64, spanOn bool, call uint32, start int64) {
	if !w.traced {
		return
	}
	end := s.now()
	w.ops[op].add(end - start)
	if spanOn {
		w.span(s.names[op], unit, call, spanUnit, start, end)
	}
}

// verify checks the clients' ledgers against the service. First, every
// submitted job not acked must be accounted for as queued, delayed or
// leased, and nothing may be dead-lettered or refused. Then it releases the
// delayed jobs and drains the tenant in process: afterwards the acked ids
// must be exactly the submitted ids, each once.
func (s *jobsSystem) verify([]*worker) []string {
	var bad []string
	submitted, acked := s.backlog, tally{}
	for _, lg := range s.ledgers {
		submitted.merge(lg.submitted)
		acked.merge(lg.acked)
	}
	s.stats = s.svc.Stats()
	ts := s.tenantStats(s.stats)
	live := int(submitted.n - acked.n)
	held := ts.Queued + ts.Delayed + ts.Leased
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{live != held, fmt.Sprintf("%d submitted jobs are unacked but the service holds %d (queued %d, delayed %d, leased %d)",
			live, held, ts.Queued, ts.Delayed, ts.Leased)},
		{ts.Leased != 0, fmt.Sprintf("%d leases outstanding after the clients stopped", ts.Leased)},
		{ts.Dead != 0, fmt.Sprintf("%d jobs dead-lettered", ts.Dead)},
		{s.stats.Acks != acked.n, fmt.Sprintf("service counted %d acks, clients %d", s.stats.Acks, acked.n)},
		{s.stats.Rejects != 0, fmt.Sprintf("service rejected %d submissions", s.stats.Rejects)},
	} {
		if c.bad {
			bad = append(bad, c.msg)
		}
	}
	if f := s.front; f != nil && f.conns.Load() != clients {
		bad = append(bad, fmt.Sprintf("%d HTTP connections opened for %d clients", f.conns.Load(), clients))
	}

	s.svc.ScanOnce(time.Now().Add(time.Hour)) // release every delayed job
	for {
		l, ok, err := s.svc.Lease(jobsTenant)
		if err != nil {
			return append(bad, fmt.Sprintf("drain: lease: %v", err))
		}
		if !ok {
			break
		}
		if !s.payloadOK(l.Payload) {
			bad = append(bad, fmt.Sprintf("drain: job %d: %v", l.ID, errPayload))
		}
		if err := s.svc.Ack(l.Token); err != nil {
			return append(bad, fmt.Sprintf("drain: ack: %v", err))
		}
		acked.add(l.ID)
	}
	switch {
	case acked.n != submitted.n:
		bad = append(bad, fmt.Sprintf("%d jobs acked in all, %d submitted", acked.n, submitted.n))
	case acked != submitted:
		bad = append(bad, "acked ids differ from submitted ids: some jobs were lost and others acked twice")
	}
	if d := s.tenantStats(s.svc.Stats()).Depth; d != 0 {
		bad = append(bad, fmt.Sprintf("tenant depth %d after the drain", d))
	}
	return bad
}

func (s *jobsSystem) tenantStats(st service.StatsSnapshot) service.TenantStats {
	for _, t := range st.Tenants {
		if t.Tenant == jobsTenant {
			return t
		}
	}
	return service.TenantStats{}
}

func (s *jobsSystem) layers(r *report, ph *phase) {
	queueCounters(r, s.rec.Snapshot())
	var leases, empty float64
	for _, lg := range s.ledgers {
		leases += float64(lg.leases)
		empty += float64(lg.empty)
	}
	r.set("service.lease_empty_ratio", ratio(empty, leases+empty))
	r.set("service.redeliveries_per_op", ratio(float64(s.stats.Redeliveries), float64(ph.attempted())))
	r.set("service.rejects", float64(s.stats.Rejects))
	q := func(op int, p float64) float64 {
		v, _ := ph.opHist(op).quantile(p)
		return v
	}
	f := s.front
	if f == nil {
		r.set("service.submit_ns_p50", q(opSubmit, 0.50))
		r.set("service.submit_ns_p99", q(opSubmit, 0.99))
		r.set("service.lease_ns_p50", q(opLease, 0.50))
		r.set("service.lease_ns_p99", q(opLease, 0.99))
		r.set("service.ack_ns_p50", q(opAck, 0.50))
		r.set("service.ack_ns_p99", q(opAck, 0.99))
		r.set("service.nack_ns_p50", q(opNack, 0.50))
		return
	}
	r.set("http.submit_rtt_us_p50", q(opSubmit, 0.50)/1e3)
	r.set("http.lease_rtt_us_p50", q(opLease, 0.50)/1e3)
	r.set("http.ack_rtt_us_p50", q(opAck, 0.50)/1e3)
	r.set("http.conns_opened", float64(f.conns.Load()))
	r.set("http.bytes_per_op", ratio(float64(f.bytes.Load()), float64(ph.attempted())))
	if t := f.tap; t != nil {
		t.mu.Lock()
		v, _ := t.lat.quantile(0.50)
		r.set("http.handler_us_p50", v/1e3)
		r.set("http.handler_share", ratio(float64(t.lat.sum), float64(ph.latSum())))
		ph.extraSpans = append(ph.extraSpans, t.spans...)
		t.mu.Unlock()
	}
}

func (s *jobsSystem) close() error {
	var errs []error
	if s.front != nil {
		errs = append(errs, s.front.close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.svc.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("service shutdown: %w", err))
	}
	return errors.Join(errs...)
}

// inproc calls the service directly.
type inproc struct{ svc *service.Service }

func (c inproc) submit(p json.RawMessage, _ string) (uint64, error) {
	j, err := c.svc.Submit(jobsTenant, p)
	return j.ID, err
}

func (c inproc) lease(string) (service.Lease, bool, error) { return c.svc.Lease(jobsTenant) }

func (c inproc) settle(token uint64, nack bool, _ string) error {
	if nack {
		return c.svc.Nack(token)
	}
	return c.svc.Ack(token)
}

// httpFront is a loopback net/http server in front of service.Handler and
// the clients that talk to it.
type httpFront struct {
	srv     *http.Server
	served  chan error
	conns   atomic.Int64 // connections the server accepted
	bytes   atomic.Int64 // bytes the clients sent and received (traced only)
	tap     *handlerTap  // nil when tracing is off
	clients []*httpAPI
}

func startHTTP(svc *service.Service, traced bool, epoch time.Time) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	f := &httpFront{served: make(chan error, 1)}
	var h http.Handler = svc.Handler()
	if traced {
		f.tap = &handlerTap{next: h, epoch: epoch}
		f.tap.spans = make([]span, 0, maxSpanUnits*clients*(maxUnitSpans-1))
		h = f.tap
	}
	f.srv = &http.Server{
		Handler: h,
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				f.conns.Add(1)
			}
		},
	}
	go func() { f.served <- f.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < clients; i++ {
		d := &net.Dialer{}
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true, DialContext: d.DialContext}
		if traced {
			tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return countingConn{c, &f.bytes}, nil
			}
		}
		c := &httpAPI{client: &http.Client{Transport: tr}, base: base}
		f.clients = append(f.clients, c)
		// Open the client's one keep-alive connection now, so set-up pays
		// for the dial and the measured loop reuses it.
		if err := c.get("/healthz"); err != nil {
			f.close()
			return nil, fmt.Errorf("opening client connection: %w", err)
		}
	}
	return f, nil
}

func (f *httpFront) close() error {
	for _, c := range f.clients {
		c.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if err != nil {
		return fmt.Errorf("http server shutdown: %w", err)
	}
	return nil
}

// handlerTap times the server side of every request and records a span
// for requests that carry a link header, up to the capacity of spans.
type handlerTap struct {
	next  http.Handler
	epoch time.Time
	mu    sync.Mutex
	lat   hist
	spans []span
}

func (t *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := int64(time.Since(t.epoch))
	t.next.ServeHTTP(w, r)
	end := int64(time.Since(t.epoch))
	unit, call, tid, linked := parseLink(r.Header.Get(linkHeader))
	t.mu.Lock()
	t.lat.add(end - start)
	if linked && len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{name: "http.handler", unit: unit, id: handlerID(call), parent: call, tid: int32(tid), start: start, end: end})
	}
	t.mu.Unlock()
}

// link encodes a span's identity for the server side of an HTTP call.
func link(unit uint64, call uint32, tid int) string {
	return strconv.FormatUint(unit, 10) + "." + strconv.FormatUint(uint64(call), 10) + "." + strconv.Itoa(tid)
}

// parseLink decodes a header written by link.
func parseLink(s string) (unit uint64, call uint32, tid int, ok bool) {
	parts := strings.Split(s, ".")
	if len(parts) != 3 {
		return 0, 0, 0, false
	}
	u, err1 := strconv.ParseUint(parts[0], 10, 64)
	c, err2 := strconv.ParseUint(parts[1], 10, 32)
	t, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	return u, uint32(c), t, true
}

// countingConn adds every byte read or written to n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// httpAPI is one client: its own transport with a single keep-alive
// connection, JSON bodies as any sbqd client would send them.
type httpAPI struct {
	client *http.Client
	base   string
	body   bytes.Buffer
}

type submitBody struct {
	Tenant  string          `json:"tenant"`
	Payload json.RawMessage `json:"payload"`
}

type leaseBody struct {
	Tenant string `json:"tenant"`
}

type settleBody struct {
	Token uint64 `json:"token"`
}

// post sends body as JSON to path and decodes a 200 reply into out. It
// returns the status code; any status but 200 or 204 is an error.
func (c *httpAPI) post(path string, body, out any, link string) (int, error) {
	c.body.Reset()
	if err := json.NewEncoder(&c.body).Encode(body); err != nil {
		return 0, fmt.Errorf("encoding %s body: %w", path, err)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(c.body.Bytes()))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if link != "" {
		req.Header.Set(linkHeader, link)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, fmt.Errorf("decoding %s reply: %w", path, err)
			}
		}
	case http.StatusNoContent:
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	// Drain the rest so the connection goes back to the pool for reuse.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("reading %s reply: %w", path, err)
	}
	return resp.StatusCode, nil
}

func (c *httpAPI) get(path string) error {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}

func (c *httpAPI) submit(p json.RawMessage, link string) (uint64, error) {
	var j service.Job
	_, err := c.post("/v1/submit", submitBody{Tenant: jobsTenant, Payload: p}, &j, link)
	return j.ID, err
}

func (c *httpAPI) lease(link string) (service.Lease, bool, error) {
	var l service.Lease
	code, err := c.post("/v1/lease", leaseBody{Tenant: jobsTenant}, &l, link)
	return l, code == http.StatusOK, err
}

func (c *httpAPI) settle(token uint64, nack bool, link string) error {
	path := "/v1/ack"
	if nack {
		path = "/v1/nack"
	}
	_, err := c.post(path, settleBody{Token: token}, nil, link)
	return err
}
