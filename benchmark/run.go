package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"drams"
	"drams/internal/xacml"
)

const (
	// issuers is the number of load goroutines; workloads never run
	// concurrently and nothing else issues requests.
	issuers = 2
	// settleTimeout bounds both a single exchange's wait for its monitor
	// event and the drain after the last arrival.
	settleTimeout = 5 * time.Second
	// agreeTimeout is how long after drain the chain nodes get to report
	// one head and one state digest.
	agreeTimeout = 2 * time.Second
	// eventBuffer sizes the alert subscription so the collector never
	// loses an event to a full channel: a whole capacity run (2 400
	// exchanges) fits even if the collector were never scheduled.
	eventBuffer = 8192
)

// Every event type the benchmark subscribes to: the synthetic completion
// event plus all security alerts the contract can raise.
const (
	evMatched         = string(drams.AlertMatched)
	evRequestTampered = "request-tampered"
)

var subscribedTypes = []drams.AlertType{
	drams.AlertMatched, evRequestTampered, "response-tampered", "message-suppressed",
	"enforcement-mismatch", "decision-incorrect", "policy-tampered", "verdict-missing", "equivocation",
}

// runConfig selects what one call of runWorkload does.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	// warmup overrides the spec's warm-up count when positive (the smoke
	// test runs at 1/20 scale).
	warmup int
	// setups is how many times the fleet is set up; the last one serves the
	// measured phase and setup_s is the median.
	setups int
	// rec, when set, makes this the traced pass: spans are recorded, the
	// fleet's counters are read around the measured phase and the layers
	// are replayed on the settled fleet before it is closed.
	rec *recorder
}

// fleet is one running deployment with the handles the driver uses.
type fleet struct {
	dep      *drams.Deployment
	clients  map[string]*drams.Client
	events   <-chan drams.Alert
	stop     func()
	openTime time.Duration
	warmTime time.Duration
}

func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
	}
	f.dep.Close()
}

// outcome is what one workload run measured.
type outcome struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	PlanHash  string `json:"plan_hash"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Completions is what the per-exchange metrics are divided by:
	// exchanges settled (decisions returned on acplane) in the measured phase.
	Completions int                `json:"completions"`
	Failures    []string           `json:"failures,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Samples     map[string]int     `json:"samples"`
	Layer       map[string]float64 `json:"layer,omitempty"`
	CalibMs     [2]float64         `json:"calib_ms"`
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 10 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// setUp builds the policy, opens the fleet, takes the client handles and the
// alert subscription and runs the count-based warm-up: the time to a warm
// fleet, which is what setup_s reports.
func setUp(p *plan) (*fleet, time.Duration, error) {
	start := time.Now()
	policy := makePolicy(p.spec)
	dep, err := drams.Open(policy,
		drams.WithTopology(topology()),
		drams.WithSeed(deploymentSeed),
		drams.WithMonitoring(p.spec.Monitored),
		drams.WithNetwork(p.spec.NetLatency, 0),
		drams.WithTimeoutBlocks(timeoutBlocks),
	)
	if err != nil {
		return nil, 0, fmt.Errorf("open fleet: %w", err)
	}
	f := &fleet{dep: dep, clients: make(map[string]*drams.Client), openTime: time.Since(start)}
	for _, t := range dep.Topology().EdgeTenants() {
		c, err := dep.Client(t.Name)
		if err != nil {
			f.close()
			return nil, 0, err
		}
		f.clients[t.Name] = c
	}
	if p.spec.Monitored {
		f.events, f.stop, err = dep.Alerts(context.Background(), drams.AlertFilter{Types: subscribedTypes, Buffer: eventBuffer})
		if err != nil {
			f.close()
			return nil, 0, err
		}
	}
	warmStart := time.Now()
	if err := warmUp(f, p); err != nil {
		f.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	f.warmTime = time.Since(warmStart)
	return f, time.Since(start), nil
}

// warmUp runs the count-based warm-up: sequential exchanges each awaited to
// its matched event on a monitored fleet, plain decisions otherwise.
func warmUp(f *fleet, p *plan) error {
	ctx := context.Background()
	if p.ac != nil {
		// Fresh streams per set-up, so every warm-up draws the same
		// requests; the measured loop continues where this one stops.
		p.acIssuers = nil
		for i := 0; i < issuers; i++ {
			p.acIssuers = append(p.acIssuers, newACIssuer(p.ac, p.seed, i))
		}
		_, err := runACLoop(f, p, p.ac.warmup, nil)
		return err
	}
	for _, ex := range p.warmup {
		if _, err := f.clients[ex.tenant].Decide(ctx, ex.req.Clone()); err != nil {
			return err
		}
		deadline := time.After(settleTimeout)
		for matched := false; !matched; {
			select {
			case ev, ok := <-f.events:
				if !ok {
					return errors.New("alert stream closed")
				}
				if ev.ReqID != ex.id {
					continue
				}
				if string(ev.Type) != evMatched {
					return fmt.Errorf("honest warm-up exchange %s raised %s", ex.id, ev.Type)
				}
				matched = true
			case <-deadline:
				return fmt.Errorf("exchange %s not matched within %s", ex.id, settleTimeout)
			}
		}
	}
	return nil
}

// runWorkload sets the fleet up, runs the measured phase, waits for every
// exchange to settle, checks correctness and closes the fleet.
func runWorkload(cfg runConfig) (*outcome, error) {
	warm := cfg.spec.Warmup
	if cfg.warmup > 0 {
		warm = cfg.warmup
	}
	p := buildPlan(cfg.spec, cfg.seed, cfg.seconds, warm)
	out := &outcome{
		Workload: cfg.spec.Name, Seed: cfg.seed, PlanHash: p.hash(),
		Metrics: map[string]float64{}, Samples: map[string]int{}, Layer: map[string]float64{},
	}

	var f *fleet
	var err error
	var setupTimes []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if f != nil {
			f.close()
			runtime.GC()
		}
		var took time.Duration
		if f, took, err = setUp(p); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
	}
	out.Metrics["setup_s"] = median(setupTimes)
	out.Samples["setup_s"] = len(setupTimes)
	out.Layer["drams.open_ms"] = ms(f.openTime)
	out.Layer["drams.warmup_ms"] = ms(f.warmTime)

	var countsBefore counts
	if cfg.rec != nil {
		if countsBefore, err = readCounts(f.dep); err != nil {
			f.close()
			return nil, err
		}
	}
	// The host is calibrated right around the measured phase, with the warm
	// fleet idling beside it both times.
	out.CalibMs[0] = ms(calibrate())
	before := readUsage()
	t0 := time.Now()
	var m *measured
	if p.ac != nil {
		m, err = runACLoop(f, p, p.ac.decisions, out)
	} else {
		m, err = runMonitored(f, p, cfg.rec, out)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	after := readUsage()
	out.CalibMs[1] = ms(calibrate())
	wall := m.end.Sub(t0)

	n := float64(m.completions)
	out.Completions = m.completions
	out.Attempted = m.attempted + len(p.flips)
	out.Metrics["exchanges_per_s"] = n / wall.Seconds()
	// CPU time follows the host's speed, which on a shared 2-core machine
	// moves by ±10 % between runs of identical code; the same host measured
	// by the calibration loop explains most of that, so CPU cost is
	// expressed at the reference speed. The raw figure stays in the report.
	rawCPU := ms(after.cpu-before.cpu) / n
	out.Metrics["cpu_ms_per_exchange_raw"] = rawCPU
	out.Metrics["cpu_ms_per_exchange"] = rawCPU * referenceCalibMs / ((out.CalibMs[0] + out.CalibMs[1]) / 2)
	out.Metrics["alloc_kb_per_exchange"] = float64(after.totalAlloc-before.totalAlloc) / 1024 / n
	out.Metrics["heap_live_mb"] = liveHeapMiB()

	if err := nodesAgree(f.dep); err != nil {
		f.close()
		return nil, err
	}
	if m.finish != nil {
		m.finish() // stops the collector: alerts that arrived up to here count
	}
	m.report(out)
	checkRun(p, out)
	if cfg.rec != nil {
		emitExchangeSpans(cfg.rec, p)
		if err := layerMetrics(f, p, cfg.rec, countsBefore, out); err != nil {
			f.close()
			return nil, err
		}
	}
	closeStart := time.Now()
	f.close()
	out.Layer["drams.close_ms"] = ms(time.Since(closeStart))
	out.Metrics["peak_rss_mb"] = float64(readUsage().maxRSSKiB) / 1024
	return out, nil
}

// measured is what the measured phase hands back: counts and the end of
// the phase at once, the latency samples once finish has stopped the event
// collector (late alerts must still be seen until the node agreement check
// is over, and samples may only be read from exchanges nothing writes to).
type measured struct {
	attempted, completions int
	end                    time.Time // every exchange settled, or the drain gave up
	finish                 func()

	decideMs, settleMs []float64
	alertMs, flipMs    []float64
	lateMs             []float64
}

// report turns samples into the named latency metrics. A percentile that the
// sample cannot support is left out rather than reported from a handful of
// outliers.
func (m *measured) report(out *outcome) {
	put := func(name string, samples []float64, p float64) {
		if len(samples) == 0 {
			return
		}
		out.Samples[name] = len(samples)
		if p == 0.5 {
			out.Metrics[name] = median(samples)
		} else if v, err := upperPercentile(samples, p); err == nil {
			out.Metrics[name] = v
		}
	}
	put("decide_p50_ms", m.decideMs, 0.5)
	put("decide_p90_ms", m.decideMs, 0.9)
	put("settle_p50_ms", m.settleMs, 0.5)
	put("settle_p90_ms", m.settleMs, 0.9)
	put("alert_p50_ms", m.alertMs, 0.5)
	put("flip_activate_p50_ms", m.flipMs, 0.5)
	put("loadgen.late_p90_ms", m.lateMs, 0.9)
}

// runMonitored drives an open or closed loop of planned exchanges against a
// monitored fleet and waits for each to settle.
func runMonitored(f *fleet, p *plan, rec *recorder, out *outcome) (*measured, error) {
	ctx := context.Background()
	byID := make(map[string]*exchange, len(p.exchanges))
	for _, ex := range p.exchanges {
		byID[ex.id] = ex
	}
	if p.spec.TamperShare > 0 {
		hook := &drams.Tamper{Request: func(r *xacml.Request) *xacml.Request {
			if ex := byID[r.ID]; ex != nil && ex.tamperOp != "" {
				return rewrite(r, ex.tamperOp)
			}
			return r
		}}
		for tenant := range f.clients {
			if err := f.dep.TamperPEP(tenant, hook); err != nil {
				return nil, err
			}
		}
	}

	// Closed loop: a token is taken before an exchange is issued and given
	// back when its monitor event arrives, so at most Outstanding exchanges
	// are un-settled at any time.
	var tokens chan struct{}
	if !p.spec.OpenLoop {
		tokens = make(chan struct{}, p.spec.Outstanding)
		for i := 0; i < p.spec.Outstanding; i++ {
			tokens <- struct{}{}
		}
	}

	var settled atomic.Int64
	allSettled := make(chan struct{})
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for ev := range f.events {
			at := time.Now()
			ex := byID[ev.ReqID]
			if ex == nil {
				continue
			}
			ex.events = append(ex.events, event{typ: string(ev.Type), at: at})
			if ex.settled.IsZero() {
				ex.settled = at
				if tokens != nil {
					tokens <- struct{}{}
				}
				if settled.Add(1) == int64(len(p.exchanges)) {
					close(allSettled)
				}
			}
		}
	}()

	t0 := time.Now()
	m := &measured{attempted: len(p.exchanges)}
	var flipErrs []error
	flipsDone := make(chan struct{})
	go func() {
		defer close(flipsDone)
		for _, fl := range p.flips {
			sleepUntil(t0.Add(fl.at))
			start := time.Now()
			id := rec.begin("flip", -1, fl.policy.Version, start)
			err := f.dep.PublishPolicy(fl.policy)
			end := time.Now()
			rec.end(id, end)
			if err != nil {
				flipErrs = append(flipErrs, fmt.Errorf("flip to %s: %w", fl.policy.Version, err))
				continue
			}
			m.flipMs = append(m.flipMs, ms(end.Sub(start)))
		}
	}()

	issue(p, t0, tokens, rec, func(ex *exchange) (drams.Enforcement, error) {
		return f.clients[ex.tenant].Decide(ctx, ex.req)
	})
	<-flipsDone
	select {
	case <-allSettled:
	case <-time.After(settleTimeout):
	}
	m.end = time.Now()
	m.completions = int(settled.Load())
	for _, err := range flipErrs {
		out.fail("%v", err)
	}

	m.finish = func() {
		f.stop() // idempotent: close calls it again
		<-collectorDone
		m.takeSamples(p, t0)
	}
	if m.completions == 0 {
		m.finish()
		return nil, errors.New("no exchange settled")
	}
	return m, nil
}

// issue runs the load goroutines over the planned exchanges and returns
// when the last one has been decided. An open loop (tokens nil) starts each
// exchange at its due time, or as soon after it as an issuer is free; a
// closed loop starts one whenever a token is available.
func issue(p *plan, t0 time.Time, tokens chan struct{}, rec *recorder, decide func(*exchange) (drams.Enforcement, error)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < issuers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.exchanges) {
					return
				}
				ex := p.exchanges[i]
				if tokens != nil {
					// An exchange whose event never arrives keeps its
					// token; the loop must not hang on it (the checker
					// counts the unsettled exchange as failed).
					select {
					case <-tokens:
					case <-time.After(settleTimeout):
					}
				} else {
					sleepUntil(t0.Add(ex.due))
				}
				ex.start = time.Now()
				ex.decideSpan = rec.begin("decide", -1, ex.id, ex.start)
				ex.enf, ex.err = decide(ex)
				ex.decided = time.Now()
				rec.end(ex.decideSpan, ex.decided)
			}
		}()
	}
	wg.Wait()
}

// takeSamples derives the latency samples once nothing writes to the
// exchanges any more. An open loop times every exchange from when it was
// due, not from when it was sent: a stall in the fleet delays the sends
// behind it, and each of those requests waited for it.
func (m *measured) takeSamples(p *plan, t0 time.Time) {
	for _, ex := range p.exchanges {
		ex.dueAt = ex.start
		if p.spec.OpenLoop {
			ex.dueAt = t0.Add(ex.due)
			m.lateMs = append(m.lateMs, ms(ex.start.Sub(ex.dueAt)))
		}
		if ex.err != nil || ex.settled.IsZero() {
			continue
		}
		if ex.tamperOp != "" {
			m.alertMs = append(m.alertMs, ms(ex.settled.Sub(ex.dueAt)))
			continue
		}
		m.decideMs = append(m.decideMs, ms(ex.decided.Sub(ex.dueAt)))
		m.settleMs = append(m.settleMs, ms(ex.settled.Sub(ex.dueAt)))
	}
}

// acSample is one acplane decision kept for the reference check.
type acSample struct {
	req *xacml.Request
	enf drams.Enforcement
}

// runACLoop runs the unmonitored closed loop: two issuers, each drawing
// from its own seeded stream, decisions split evenly. out is nil during the
// warm-up, whose results are discarded.
func runACLoop(f *fleet, p *plan, decisions int, out *outcome) (*measured, error) {
	ctx := context.Background()
	lat := make([][]float64, issuers)
	kept := make([][]acSample, issuers)
	errs := make([]error, issuers)
	var wg sync.WaitGroup
	for i := 0; i < issuers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			is := p.acIssuers[i]
			share := decisions / issuers
			if i < decisions%issuers {
				share++
			}
			if out != nil {
				lat[i] = make([]float64, 0, share)
			}
			for n := 0; n < share; n++ {
				req := is.next()
				client := f.clients[p.tenants[is.rng.Intn(len(p.tenants))]]
				start := time.Now()
				enf, err := client.Decide(ctx, req)
				took := time.Since(start)
				if err != nil {
					errs[i] = errors.Join(errs[i], err)
					continue
				}
				if out == nil {
					continue
				}
				lat[i] = append(lat[i], ms(took))
				if n%acCheckEvery == 0 {
					kept[i] = append(kept[i], acSample{req: req.Clone(), enf: enf})
				}
			}
		}()
	}
	wg.Wait()
	m := &measured{attempted: decisions, end: time.Now()}
	for i := range lat {
		m.decideMs = append(m.decideMs, lat[i]...)
		p.acKept = append(p.acKept, kept[i]...)
		if errs[i] != nil {
			if out == nil {
				return nil, errs[i]
			}
			out.fail("decide: %v", errs[i])
		}
	}
	// With the monitor off an exchange is complete when Decide returns.
	m.settleMs = m.decideMs
	m.completions = len(m.decideMs)
	if out != nil && m.completions == 0 {
		return nil, errors.New("no decision succeeded")
	}
	return m, nil
}

// nodesAgree waits until the chain nodes of every cloud report one head
// hash and one state digest. The producer keeps mining empty blocks, and a
// digest over a capacity run's end state takes about as long as a block
// interval, so head and digest cannot be read at one instant: each round
// reads the three heads in quick succession, then the three digests, and
// the check passes on the first round in which both sets are equal.
func nodesAgree(dep *drams.Deployment) error {
	deadline := time.Now().Add(agreeTimeout)
	for {
		var heads, digests []string
		for _, c := range dep.Topology().Clouds {
			node, err := dep.Node(c.Name)
			if err != nil {
				return err
			}
			head, _ := node.Chain().Head()
			heads = append(heads, head.Short())
		}
		for _, c := range dep.Topology().Clouds {
			node, err := dep.Node(c.Name)
			if err != nil {
				return err
			}
			digests = append(digests, node.Chain().StateDigest().Short())
		}
		if allEqual(heads) && allEqual(digests) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chain nodes disagree %s after drain: heads %v, state digests %v", agreeTimeout, heads, digests)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func allEqual(vs []string) bool {
	for _, v := range vs[1:] {
		if v != vs[0] {
			return false
		}
	}
	return true
}

// emitExchangeSpans adds, for every settled exchange, the root span (due →
// settled) and the await span (decide return → event receipt) around the
// decide span the issuer recorded live.
func emitExchangeSpans(rec *recorder, p *plan) {
	for _, ex := range p.exchanges {
		if ex.settled.IsZero() {
			continue
		}
		root := rec.begin("exchange", -1, ex.id, ex.dueAt)
		rec.end(root, ex.settled)
		rec.setParent(ex.decideSpan, root)
		name := "await-match"
		if ex.tamperOp != "" {
			name = "await-alert"
		}
		await := rec.begin(name, root, ex.id, ex.decided)
		rec.end(await, ex.settled)
	}
}
