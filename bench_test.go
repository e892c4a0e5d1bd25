// Benchmarks regenerating the paper's quantitative artifacts. One
// benchmark (group) per table/figure, plus the call-path decomposition and
// the ablations DESIGN.md calls out:
//
//	Table 1    -> BenchmarkTable1_*           (RTT per configuration)
//	Figure 7   -> BenchmarkFigure7Matrix      (active-publishing matrix)
//	Figure 8   -> BenchmarkFigure8Matrix      (reactive-publishing matrix)
//	Section5.6 -> BenchmarkPublisherStrategies (publication-policy sweep)
//	Section5.7 -> BenchmarkStaleCall_*        (forced publication by state)
//	           -> BenchmarkRogueClientStorm   (rogue-client defence)
//	Section 7  -> BenchmarkCallPath_*         (per-stage overhead)
package livedev_test

import (
	"context"
	"testing"
	"time"

	"livedev"
	"livedev/internal/cdr"
	"livedev/internal/clock"
	"livedev/internal/core"
	"livedev/internal/dyn"
	"livedev/internal/experiments"
	"livedev/internal/h2b"
	"livedev/internal/idl"
	"livedev/internal/jsonb"
	"livedev/internal/orb"
	"livedev/internal/raceplan"
	"livedev/internal/soap"
	"livedev/internal/static"
	"livedev/internal/workload"
	"livedev/internal/wsdl"
)

const benchPayload = "benchmark-payload-0123456789-benchmark-payload-0123456789-abcdef"

func echoClass(name string) *dyn.Class {
	c := dyn.NewClass(name)
	_, _ = c.AddMethod(dyn.MethodSpec{
		Name:        "echo",
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
		Name:   "echo",
		Params: []dyn.Param{{Name: "s", Type: dyn.StringT}},
		Result: dyn.StringT,
		Fn:     func(args []dyn.Value) (dyn.Value, error) { return args[0], nil },
	}}
}

func echoSig() dyn.MethodSig {
	return dyn.MethodSig{
		Name:   "echo",
		Params: []dyn.Param{{Name: "s", Type: dyn.StringT}},
		Result: dyn.StringT,
	}
}

// --- Table 1: one benchmark per row ---

// BenchmarkTable1_SDESOAP measures the "SDE SOAP/Axis" row: a live SDE
// SOAP server called by a static SOAP client.
func BenchmarkTable1_SDESOAP(b *testing.B) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(echoClass("B1"), core.TechSOAP)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	client := &soap.Client{Endpoint: srv.(*core.SOAPServer).Endpoint(), ServiceNS: "urn:B1"}
	args := []soap.NamedValue{{Name: "s", Value: dyn.StringValue(benchPayload)}}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.CallContext(ctx, "echo", args, dyn.StringT); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_StaticSOAP measures the "Axis-Tomcat/Axis" row.
func BenchmarkTable1_StaticSOAP(b *testing.B) {
	srv, err := static.NewSOAPServer("urn:B2", echoOps())
	if err != nil {
		b.Fatal(err)
	}
	endpoint, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := &soap.Client{Endpoint: endpoint, ServiceNS: "urn:B2"}
	args := []soap.NamedValue{{Name: "s", Value: dyn.StringValue(benchPayload)}}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.CallContext(ctx, "echo", args, dyn.StringT); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_SDECORBA measures the "SDE CORBA/OpenORB" row.
func BenchmarkTable1_SDECORBA(b *testing.B) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(echoClass("B3"), core.TechCORBA)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	conn, err := orb.DialIOR(srv.(*core.CORBAServer).IOR())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(benchPayload)}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := conn.InvokeContext(ctx, sig, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_StaticCORBA measures the "OpenORB/OpenORB" row.
func BenchmarkTable1_StaticCORBA(b *testing.B) {
	srv, err := static.NewCORBAServer("IDL:B4Module/B4:1.0", []byte("b4"), echoOps())
	if err != nil {
		b.Fatal(err)
	}
	ref, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := orb.DialIOR(ref)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(benchPayload)}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := conn.InvokeContext(ctx, sig, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_SDEJSON measures the JSON-binding row added with the v2
// binding seam: a live SDE JSON server called over JSON-POST.
func BenchmarkTable1_SDEJSON(b *testing.B) {
	core.RegisterBinding(jsonb.New())
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(echoClass("B5"), core.Technology(jsonb.Name))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	caller := &jsonb.Caller{Endpoint: srv.(*jsonb.Server).Endpoint()}
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(benchPayload)}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := caller.Call(ctx, sig, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_SDEH2B measures the CDR-over-HTTP/2 row: a live SDE H2B
// server called with pooled CDR encoding over a prior-knowledge h2c stream.
func BenchmarkTable1_SDEH2B(b *testing.B) {
	core.RegisterBinding(h2b.New())
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(echoClass("B6"), core.Technology(h2b.Name))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	caller := &h2b.Caller{Endpoint: srv.(*h2b.Server).Endpoint()}
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(benchPayload)}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := caller.Call(ctx, sig, args); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1, parallel rows: the multiplexed fast path ---
//
// The *Parallel variants drive the same echo workload from GOMAXPROCS
// goroutines. For the HTTP bindings this is where connection handling
// dominates: JSON opens/queues HTTP/1.1 connections per caller while H2B
// multiplexes every caller as a stream on one TCP connection.

// BenchmarkTable1_SDESOAPParallel measures SDE SOAP under concurrent callers.
func BenchmarkTable1_SDESOAPParallel(b *testing.B) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(echoClass("BP1"), core.TechSOAP)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	client := &soap.Client{Endpoint: srv.(*core.SOAPServer).Endpoint(), ServiceNS: "urn:BP1"}
	args := []soap.NamedValue{{Name: "s", Value: dyn.StringValue(benchPayload)}}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.CallContext(ctx, "echo", args, dyn.StringT); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable1_SDECORBAParallel measures SDE CORBA under concurrent
// callers sharing one GIOP connection.
func BenchmarkTable1_SDECORBAParallel(b *testing.B) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(echoClass("BP2"), core.TechCORBA)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	conn, err := orb.DialIOR(srv.(*core.CORBAServer).IOR())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(benchPayload)}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := conn.InvokeContext(ctx, sig, args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable1_SDEJSONParallel measures the JSON binding under
// concurrent callers (HTTP/1.1 connection-per-request semantics).
func BenchmarkTable1_SDEJSONParallel(b *testing.B) {
	core.RegisterBinding(jsonb.New())
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(echoClass("BP3"), core.Technology(jsonb.Name))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	caller := &jsonb.Caller{Endpoint: srv.(*jsonb.Server).Endpoint()}
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(benchPayload)}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := caller.Call(ctx, sig, args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable1_SDEH2BParallel measures the CDR-over-HTTP/2 binding
// under concurrent callers — every worker's calls multiplex as h2 streams
// over the binding's single shared TCP connection to the endpoint.
func BenchmarkTable1_SDEH2BParallel(b *testing.B) {
	core.RegisterBinding(h2b.New())
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(echoClass("BP4"), core.Technology(h2b.Name))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	caller := &h2b.Caller{Endpoint: srv.(*h2b.Server).Endpoint()}
	sig := echoSig()
	args := []dyn.Value{dyn.StringValue(benchPayload)}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := caller.Call(ctx, sig, args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figures 7 and 8 ---

// BenchmarkFigure7Matrix simulates the full active-publishing interleaving
// matrix and checks the 3-of-9 consistency result each iteration.
func BenchmarkFigure7Matrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, total := raceplan.ConsistentCount(raceplan.ActivePublishing)
		if c != 3 || total != 9 {
			b.Fatalf("Figure 7 matrix wrong: %d/%d", c, total)
		}
	}
}

// BenchmarkFigure8Matrix simulates the reactive-publishing matrix and
// checks the all-consistent result each iteration.
func BenchmarkFigure8Matrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, total := raceplan.ConsistentCount(raceplan.ReactivePublishing)
		if c != 16 || total != 16 {
			b.Fatalf("Figure 8 matrix wrong: %d/%d", c, total)
		}
	}
}

// --- Section 5.6: publication strategies ---

// BenchmarkPublisherStrategies replays a deterministic developer edit
// trace in virtual time under all three publication policies.
func BenchmarkPublisherStrategies(b *testing.B) {
	cfg := experiments.DefaultSweep(1)
	cfg.Trace.Bursts = 6
	cfg.Timeouts = []time.Duration{200 * time.Millisecond, time.Second}
	cfg.PollIntervals = []time.Duration{time.Second}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 5.7: forced publication ---

// BenchmarkStaleCall_IdleCurrent measures EnsureCurrent when the publisher
// is idle and current (the rogue-client fast path).
func BenchmarkStaleCall_IdleCurrent(b *testing.B) {
	class := echoClass("BS1")
	p := core.NewDLPublisher(class, time.Hour, clock.Real{}, func(dyn.InterfaceDescriptor) error { return nil })
	defer p.Close()
	p.PublishNow()
	p.WaitIdle()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.EnsureCurrent()
	}
}

// BenchmarkStaleCall_TimerArmed measures EnsureCurrent when an edit is
// pending (timer armed): each iteration forces one generation.
func BenchmarkStaleCall_TimerArmed(b *testing.B) {
	class := echoClass("BS2")
	id, _ := class.MethodIDByName("echo")
	p := core.NewDLPublisher(class, time.Hour, clock.Real{}, func(dyn.InterfaceDescriptor) error { return nil })
	defer p.Close()
	p.PublishNow()
	p.WaitIdle()
	names := [2]string{"echoA", "echoB"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := class.RenameMethod(id, names[i%2]); err != nil {
			b.Fatal(err)
		}
		p.EnsureCurrent()
	}
}

// BenchmarkRogueClientStorm sends stale SOAP calls to a live SDE server
// whose published interface is already current: the Section 5.7 algorithm
// must answer each without triggering a generation.
func BenchmarkRogueClientStorm(b *testing.B) {
	mgr, err := core.NewManager(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	srv, err := mgr.Register(echoClass("BRogue"), core.TechSOAP)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	ss := srv.(*core.SOAPServer)
	client := &soap.Client{Endpoint: ss.Endpoint(), ServiceNS: "urn:BRogue"}
	before := srv.Publisher().Stats().Generations
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := client.CallContext(ctx, "nonexistent", nil, dyn.StringT)
		if !soap.IsNonExistentMethod(err) {
			b.Fatalf("unexpected reply: %v", err)
		}
	}
	b.StopTimer()
	if extra := srv.Publisher().Stats().Generations - before; extra > 1 {
		b.Fatalf("rogue storm triggered %d generations", extra)
	}
}

// --- Section 7: call-path decomposition (network-free) ---

// BenchmarkCallPath_DynInvoke measures dynamic dispatch through the live
// method table — the per-call cost the SDE adds over a static jump.
func BenchmarkCallPath_DynInvoke(b *testing.B) {
	class := echoClass("BCP")
	in := class.NewInstance()
	arg := dyn.StringValue(benchPayload)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.InvokeDistributed("echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallPath_SOAPBuildRequest measures SOAP request encoding.
func BenchmarkCallPath_SOAPBuildRequest(b *testing.B) {
	params := []soap.NamedValue{{Name: "s", Value: dyn.StringValue(benchPayload)}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := soap.BuildRequest("urn:B", "echo", params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallPath_SOAPParseRequest measures SOAP request parsing.
func BenchmarkCallPath_SOAPParseRequest(b *testing.B) {
	env, err := soap.BuildRequest("urn:B", "echo",
		[]soap.NamedValue{{Name: "s", Value: dyn.StringValue(benchPayload)}})
	if err != nil {
		b.Fatal(err)
	}
	raw := []byte(env)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := soap.ParseRequest(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallPath_CDREncode measures CDR argument encoding through the
// pooled encoder lifecycle the transports use (GetEncoder → encode →
// PutEncoder), so the number tracks the production encode path.
func BenchmarkCallPath_CDREncode(b *testing.B) {
	v := dyn.StringValue(benchPayload)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := cdr.GetEncoder(cdr.BigEndian)
		if err := cdr.EncodeValue(e, v); err != nil {
			b.Fatal(err)
		}
		cdr.PutEncoder(e)
	}
}

// BenchmarkCallPath_CDRDecode measures CDR argument decoding with a reused
// decoder over a caller-owned buffer (zero-copy string reads), the
// allocation floor of the decode path.
func BenchmarkCallPath_CDRDecode(b *testing.B) {
	e := cdr.NewEncoder(cdr.BigEndian)
	if err := cdr.EncodeValue(e, dyn.StringValue(benchPayload)); err != nil {
		b.Fatal(err)
	}
	raw := e.Bytes()
	var d cdr.Decoder
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Reset(raw, cdr.BigEndian)
		d.SetZeroCopy(true) // raw outlives every decoded value here
		if _, err := cdr.DecodeValue(&d, dyn.StringT); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallPath_InterfaceLookup measures the live interface snapshot +
// lookup the SDE handlers perform per request.
func BenchmarkCallPath_InterfaceLookup(b *testing.B) {
	class := echoClass("BLookup")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := class.Interface().Lookup("echo"); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// --- Generation costs (the "relatively expensive operation" of 5.6) ---

// BenchmarkGenerate_WSDL measures WSDL document generation + serialization.
func BenchmarkGenerate_WSDL(b *testing.B) {
	desc := echoClass("BW").Interface()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc := wsdl.Generate(desc, "http://127.0.0.1:1/BW")
		if _, err := doc.XML(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate_IDL measures CORBA-IDL generation + printing.
func BenchmarkGenerate_IDL(b *testing.B) {
	desc := echoClass("BI").Interface()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc, err := idl.Generate(desc)
		if err != nil {
			b.Fatal(err)
		}
		_ = idl.Print(doc)
	}
}

// BenchmarkCompile_WSDL measures the client-side WSDL compiler.
func BenchmarkCompile_WSDL(b *testing.B) {
	doc := wsdl.Generate(echoClass("BCW").Interface(), "http://127.0.0.1:1/BCW")
	text, err := doc.XML()
	if err != nil {
		b.Fatal(err)
	}
	raw := []byte(text)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wsdl.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile_IDL measures the client-side IDL compiler.
func BenchmarkCompile_IDL(b *testing.B) {
	doc, err := idl.Generate(echoClass("BCI").Interface())
	if err != nil {
		b.Fatal(err)
	}
	text := idl.Print(doc)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parsed, err := idl.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := idl.Resolve(parsed, "BCI"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end live development cycle ---

// BenchmarkLiveEditToRepublish measures a full edit→forced-publish cycle
// against a live manager (the developer's perceived latency when hitting
// "publish now" after an edit).
func BenchmarkLiveEditToRepublish(b *testing.B) {
	mgr, err := livedev.NewManager(livedev.Config{Timeout: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	class := echoClass("BLive")
	srv, err := mgr.Register(class, livedev.TechSOAP)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.CreateInstance(); err != nil {
		b.Fatal(err)
	}
	id, _ := class.MethodIDByName("echo")
	names := [2]string{"echoA", "echoB"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := class.RenameMethod(id, names[i%2]); err != nil {
			b.Fatal(err)
		}
		srv.Publisher().PublishNow()
		srv.Publisher().WaitIdle()
	}
}

// BenchmarkRTTMeasurementOverhead quantifies the measurement harness's own
// cost so Table 1 numbers can be interpreted.
func BenchmarkRTTMeasurementOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.MeasureRTT(1, func() error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
