// Package experiments contains the harnesses that regenerate the paper's
// quantitative artifacts: Table 1 (RTT comparison of SDE vs. static
// servers over SOAP and CORBA), the Figure 7/8 consistency matrices, the
// Section 5.6 publication-strategy design-space sweep, and the
// Section 5.7 forced-publication latency study. The cmd/ binaries and the
// root bench_test.go are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"net/http"

	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/h2b"
	"livedev/internal/jsonb"
	"livedev/internal/orb"
	"livedev/internal/soap"
	"livedev/internal/static"
	"livedev/internal/workload"
)

// The JSON and H2B bindings are wired through the public registry — the
// Table 1 harness deploys them exactly like the built-in technologies.
func init() {
	core.RegisterBinding(jsonb.New())
	core.RegisterBinding(h2b.New())
}

// Table1Row is one row of the Table 1 reproduction.
type Table1Row struct {
	// Config matches the paper's "Server/Client" column.
	Config string
	// PaperRTT is the RTT the paper reports for the analogous stack.
	PaperRTT time.Duration
	// Measured summarizes our measured round trips.
	Measured workload.RTTStats
	// AllocsPerOp is the mean number of heap allocations per call,
	// measured process-wide across the measurement rounds — client and
	// in-process server side together, the full invocation pipeline.
	AllocsPerOp float64
	// BytesPerOp is the mean number of heap bytes allocated per call,
	// measured the same way.
	BytesPerOp float64
}

// Table1Config parameterizes the RTT experiment.
type Table1Config struct {
	// Calls is the number of RMI calls per configuration; the paper
	// averaged over one hundred calls.
	Calls int
	// PayloadBytes sizes the echoed string argument.
	PayloadBytes int
}

// DefaultTable1 mirrors the paper: 100 calls, small payload.
func DefaultTable1() Table1Config {
	return Table1Config{Calls: 100, PayloadBytes: 64}
}

// echoOpName is the operation used in the RTT measurement.
const echoOpName = "echo"

func echoClass(name string) *dyn.Class {
	c := dyn.NewClass(name)
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name:        echoOpName,
		Params:      []dyn.Param{{Name: "s", Type: dyn.StringT}},
		Result:      dyn.StringT,
		Distributed: true,
		Body: func(_ *dyn.Instance, args []dyn.Value) (dyn.Value, error) {
			return args[0], nil
		},
	})
	return c
}

func echoOps() []static.Op {
	return []static.Op{{
		Name:   echoOpName,
		Params: []dyn.Param{{Name: "s", Type: dyn.StringT}},
		Result: dyn.StringT,
		Fn: func(args []dyn.Value) (dyn.Value, error) {
			return args[0], nil
		},
	}}
}

func echoSig() dyn.MethodSig {
	return dyn.MethodSig{
		Name:   echoOpName,
		Params: []dyn.Param{{Name: "s", Type: dyn.StringT}},
		Result: dyn.StringT,
	}
}

// rttSetup is one deployed stack: its Table 1 row name, the paper's RTT
// for the analogous configuration (zero when the paper has none), a
// goroutine-safe call closure, and the teardown. The builders below each
// deploy one stack; RunTable1 and RunTable1Parallel compose them.
type rttSetup struct {
	name     string
	paperRTT time.Duration
	call     func() error
	teardown func()
}

func soapEchoCall(client *soap.Client, payload string) func() error {
	args := []soap.NamedValue{{Name: "s", Value: dyn.StringValue(payload)}}
	ctx := context.Background()
	return func() error {
		got, err := client.CallContext(ctx, echoOpName, args, dyn.StringT)
		if err != nil {
			return err
		}
		if got.Str() != payload {
			return fmt.Errorf("echo corrupted the payload")
		}
		return nil
	}
}

func corbaEchoCall(conn *orb.ClientORB, payload string) func() error {
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(payload)}
	ctx := context.Background()
	return func() error {
		got, err := conn.InvokeContext(ctx, sig, args)
		if err != nil {
			return err
		}
		if got.Str() != payload {
			return fmt.Errorf("echo corrupted the payload")
		}
		return nil
	}
}

func setupSDESOAP(payload string) (rttSetup, error) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		return rttSetup{}, err
	}
	srv, err := mgr.Register(echoClass("EchoSDE"), core.TechSOAP)
	if err != nil {
		_ = mgr.Close()
		return rttSetup{}, err
	}
	if _, err := srv.CreateInstance(); err != nil {
		_ = mgr.Close()
		return rttSetup{}, err
	}
	ss := srv.(*core.SOAPServer)
	client := &soap.Client{Endpoint: ss.Endpoint(), ServiceNS: "urn:EchoSDE", HTTPClient: &http.Client{}}
	return rttSetup{
		name: "SDE SOAP/Axis", paperRTT: 580 * time.Millisecond,
		call: soapEchoCall(client, payload), teardown: func() { _ = mgr.Close() },
	}, nil
}

func setupStaticSOAP(payload string) (rttSetup, error) {
	srv, err := static.NewSOAPServer("urn:EchoStatic", echoOps())
	if err != nil {
		return rttSetup{}, err
	}
	endpoint, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return rttSetup{}, err
	}
	client := &soap.Client{Endpoint: endpoint, ServiceNS: "urn:EchoStatic", HTTPClient: &http.Client{}}
	return rttSetup{
		name: "Axis-Tomcat/Axis", paperRTT: 530 * time.Millisecond,
		call: soapEchoCall(client, payload), teardown: func() { _ = srv.Close() },
	}, nil
}

func setupSDECORBA(payload string) (rttSetup, error) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		return rttSetup{}, err
	}
	srv, err := mgr.Register(echoClass("EchoSDEC"), core.TechCORBA)
	if err != nil {
		_ = mgr.Close()
		return rttSetup{}, err
	}
	if _, err := srv.CreateInstance(); err != nil {
		_ = mgr.Close()
		return rttSetup{}, err
	}
	cs := srv.(*core.CORBAServer)
	conn, err := orb.DialIOR(cs.IOR())
	if err != nil {
		_ = mgr.Close()
		return rttSetup{}, err
	}
	return rttSetup{
		name: "SDE CORBA/OpenORB", paperRTT: 510 * time.Millisecond,
		call: corbaEchoCall(conn, payload), teardown: func() { _ = conn.Close(); _ = mgr.Close() },
	}, nil
}

func setupStaticCORBA(payload string) (rttSetup, error) {
	srv, err := static.NewCORBAServer("IDL:EchoModule/Echo:1.0", []byte("echo"), echoOps())
	if err != nil {
		return rttSetup{}, err
	}
	ref, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return rttSetup{}, err
	}
	conn, err := orb.DialIOR(ref)
	if err != nil {
		_ = srv.Close()
		return rttSetup{}, err
	}
	return rttSetup{
		name: "OpenORB/OpenORB", paperRTT: 420 * time.Millisecond,
		call: corbaEchoCall(conn, payload), teardown: func() { _ = conn.Close(); _ = srv.Close() },
	}, nil
}

// setupSDEJSON deploys the binding-seam row added with the v2 API (no
// paper analogue).
func setupSDEJSON(payload string) (rttSetup, error) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		return rttSetup{}, err
	}
	srv, err := mgr.Register(echoClass("EchoSDEJ"), core.Technology(jsonb.Name))
	if err != nil {
		_ = mgr.Close()
		return rttSetup{}, err
	}
	if _, err := srv.CreateInstance(); err != nil {
		_ = mgr.Close()
		return rttSetup{}, err
	}
	js := srv.(*jsonb.Server)
	caller := &jsonb.Caller{Endpoint: js.Endpoint(), HTTPClient: &http.Client{}}
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(payload)}
	ctx := context.Background()
	return rttSetup{
		name: "SDE JSON/http", paperRTT: 0,
		call: func() error {
			got, err := caller.Call(ctx, sig, args)
			if err != nil {
				return err
			}
			if got.Str() != payload {
				return fmt.Errorf("echo corrupted the payload")
			}
			return nil
		},
		teardown: func() { _ = mgr.Close() },
	}, nil
}

// setupSDEH2B deploys the multiplexed binary binding (no paper analogue):
// CDR bodies over one cleartext-HTTP/2 connection, concurrent calls as
// concurrent streams.
func setupSDEH2B(payload string) (rttSetup, error) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		return rttSetup{}, err
	}
	srv, err := mgr.Register(echoClass("EchoSDEH"), core.Technology(h2b.Name))
	if err != nil {
		_ = mgr.Close()
		return rttSetup{}, err
	}
	if _, err := srv.CreateInstance(); err != nil {
		_ = mgr.Close()
		return rttSetup{}, err
	}
	hs := srv.(*h2b.Server)
	caller := &h2b.Caller{Endpoint: hs.Endpoint()}
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(payload)}
	ctx := context.Background()
	return rttSetup{
		name: "SDE H2B/h2c", paperRTT: 0,
		call: func() error {
			got, err := caller.Call(ctx, sig, args)
			if err != nil {
				return err
			}
			if got.Str() != payload {
				return fmt.Errorf("echo corrupted the payload")
			}
			return nil
		},
		teardown: func() { _ = mgr.Close() },
	}, nil
}

// buildSetups runs the builders, tearing down everything already deployed
// if one fails.
func buildSetups(payload string, builders []func(string) (rttSetup, error)) ([]rttSetup, error) {
	var setups []rttSetup
	for _, build := range builders {
		s, err := build(payload)
		if err != nil {
			for _, t := range setups {
				t.teardown()
			}
			return nil, err
		}
		setups = append(setups, s)
	}
	return setups, nil
}

// RunTable1 measures the four configurations of the paper's Table 1:
//
//	SDE SOAP    / static SOAP client   (paper: SDE SOAP/Axis, 0.58 s)
//	static SOAP / static SOAP client   (paper: Axis-Tomcat/Axis, 0.53 s)
//	SDE CORBA   / static CORBA client  (paper: SDE CORBA/OpenORB, 0.51 s)
//	static CORBA/ static CORBA client  (paper: OpenORB/OpenORB, 0.42 s)
//
// plus the two bindings without a paper analogue, JSON/http and H2B/h2c.
//
// Absolute values are not comparable (the paper measured two 2004-era
// machines over a T1 LAN; we measure loopback TCP), but the shape is:
// CORBA beats SOAP, and each SDE server pays a development-time overhead
// over its static counterpart.
// All configurations are set up first and then measured in interleaved
// rounds, so slow environmental drift (CPU contention, GC, frequency
// scaling) affects every configuration equally instead of biasing
// whichever happened to run last.
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	if cfg.Calls <= 0 {
		cfg.Calls = 100
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 64
	}
	payload := strings.Repeat("x", cfg.PayloadBytes)

	setups, err := buildSetups(payload, []func(string) (rttSetup, error){
		setupSDESOAP, setupStaticSOAP, setupSDECORBA, setupStaticCORBA, setupSDEJSON, setupSDEH2B,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range setups {
			s.teardown()
		}
	}()

	// Warm up every configuration.
	for _, s := range setups {
		for i := 0; i < warmupCalls; i++ {
			if err := s.call(); err != nil {
				return nil, fmt.Errorf("%s warmup: %w", s.name, err)
			}
		}
	}

	// Interleaved measurement rounds. Heap-allocation deltas are sampled
	// around each round: all stacks run in this process, but only the
	// configuration under measurement is exercising its client and server,
	// so the process-wide delta attributes to it (modulo background noise,
	// amortized by the interleaving).
	const rounds = 10
	perRound := cfg.Calls / rounds
	if perRound == 0 {
		perRound = 1
	}
	samples := make([][]time.Duration, len(setups))
	mallocs := make([]uint64, len(setups))
	allocBytes := make([]uint64, len(setups))
	var ms runtime.MemStats
	for r := 0; r < rounds; r++ {
		for i, s := range setups {
			runtime.ReadMemStats(&ms)
			m0, b0 := ms.Mallocs, ms.TotalAlloc
			part, err := workload.MeasureRTT(perRound, s.call)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			runtime.ReadMemStats(&ms)
			mallocs[i] += ms.Mallocs - m0
			allocBytes[i] += ms.TotalAlloc - b0
			samples[i] = append(samples[i], part...)
		}
	}

	rows := make([]Table1Row, len(setups))
	for i, s := range setups {
		n := float64(len(samples[i]))
		rows[i] = Table1Row{
			Config:      s.name,
			PaperRTT:    s.paperRTT,
			Measured:    workload.Summarize(samples[i]),
			AllocsPerOp: float64(mallocs[i]) / n,
			BytesPerOp:  float64(allocBytes[i]) / n,
		}
	}
	return rows, nil
}

// warmupCalls stabilizes connection pools, scheduler and allocator state
// before measurement begins.
const warmupCalls = 20

// FormatTable1 renders rows the way the paper prints Table 1, plus the
// measured numbers, allocation profile, and overhead ratios.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: RTT times for client-server communication\n")
	fmt.Fprintf(&b, "%-22s %12s %14s %14s %10s %12s %10s\n",
		"Server/Client", "paper RTT", "measured mean", "measured p50", "n", "allocs/op", "B/op")
	for _, r := range rows {
		paper := "—"
		if r.PaperRTT > 0 {
			paper = r.PaperRTT.String()
		}
		fmt.Fprintf(&b, "%-22s %12s %14s %14s %10d %12.1f %10.0f\n",
			r.Config, paper, r.Measured.Mean.Round(time.Microsecond),
			r.Measured.P50.Round(time.Microsecond), r.Measured.N,
			r.AllocsPerOp, r.BytesPerOp)
	}
	if len(rows) >= 4 {
		soapOverhead := float64(rows[0].Measured.Mean) / float64(rows[1].Measured.Mean)
		corbaOverhead := float64(rows[2].Measured.Mean) / float64(rows[3].Measured.Mean)
		paperSOAP := 0.58 / 0.53
		paperCORBA := 0.51 / 0.42
		fmt.Fprintf(&b, "\nSDE overhead, SOAP path:  measured %.2fx (paper %.2fx)\n", soapOverhead, paperSOAP)
		fmt.Fprintf(&b, "SDE overhead, CORBA path: measured %.2fx (paper %.2fx)\n", corbaOverhead, paperCORBA)
		fmt.Fprintf(&b, "CORBA vs SOAP (static):   measured %.2fx (paper %.2fx)\n",
			float64(rows[1].Measured.Mean)/float64(rows[3].Measured.Mean), 0.53/0.42)
	}
	return b.String()
}

// ParallelRTTRow is one row of the parallel-call throughput measurement:
// the same echo workload as Table 1, but driven by `Workers` concurrent
// callers against one endpoint. NsPerOp is wall-clock over total calls —
// a throughput number, not a latency one, so it rewards transports that
// overlap calls (HTTP/2 stream multiplexing, IIOP request pipelining) and
// punishes those that serialize or open connections per concurrent call.
type ParallelRTTRow struct {
	// Config matches the Table 1 "Server/Client" column.
	Config string
	// Workers is the number of concurrent callers.
	Workers int
	// Calls is the total number of calls measured across all workers.
	Calls int
	// Wall is the total wall-clock time for all measurement rounds.
	Wall time.Duration
	// NsPerOp is Wall divided by Calls.
	NsPerOp float64
}

// RunTable1Parallel measures the four SDE bindings — SOAP, CORBA, JSON,
// and H2B — under workers concurrent callers each. The static stacks are
// omitted: the comparison of interest is between the SDE's bindings, the
// multiplexed binary binding against the boxed ones. Configurations are
// measured in interleaved rounds like RunTable1.
func RunTable1Parallel(cfg Table1Config, workers int) ([]ParallelRTTRow, error) {
	if cfg.Calls <= 0 {
		cfg.Calls = 100
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 64
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	payload := strings.Repeat("x", cfg.PayloadBytes)

	setups, err := buildSetups(payload, []func(string) (rttSetup, error){
		setupSDESOAP, setupSDECORBA, setupSDEJSON, setupSDEH2B,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range setups {
			s.teardown()
		}
	}()

	// Warm up with the measurement's own concurrency, so connection pools
	// reach their steady-state shape before timing starts.
	for _, s := range setups {
		if _, err := runParallel(s.call, workers, workers); err != nil {
			return nil, fmt.Errorf("%s warmup: %w", s.name, err)
		}
	}

	const rounds = 5
	perRound := cfg.Calls / rounds
	if perRound < workers {
		perRound = workers
	}
	walls := make([]time.Duration, len(setups))
	calls := make([]int, len(setups))
	for r := 0; r < rounds; r++ {
		for i, s := range setups {
			wall, err := runParallel(s.call, workers, perRound)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			walls[i] += wall
			calls[i] += perRound
		}
	}

	rows := make([]ParallelRTTRow, len(setups))
	for i, s := range setups {
		rows[i] = ParallelRTTRow{
			Config:  s.name,
			Workers: workers,
			Calls:   calls[i],
			Wall:    walls[i],
			NsPerOp: float64(walls[i].Nanoseconds()) / float64(calls[i]),
		}
	}
	return rows, nil
}

// runParallel spreads calls across workers goroutines and returns the
// wall-clock time for all of them to finish.
func runParallel(call func() error, workers, calls int) (time.Duration, error) {
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	per := calls / workers
	extra := calls % workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := call(); err != nil {
					errCh <- err
					return
				}
			}
		}(n)
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return wall, nil
}

// FormatParallel renders the parallel-call rows.
func FormatParallel(rows []ParallelRTTRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Parallel calls: %d concurrent callers per configuration\n", rows[0].Workers)
	fmt.Fprintf(&b, "%-22s %10s %12s %14s\n", "Server/Client", "calls", "wall", "ns/op")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10d %12s %14.0f\n",
			r.Config, r.Calls, r.Wall.Round(time.Microsecond), r.NsPerOp)
	}
	return b.String()
}
