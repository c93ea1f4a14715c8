package mpcnet_test

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpcquery/internal/mpc"
	"mpcquery/internal/mpcnet"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/trace"
)

// workerEnv marks a re-exec of the test binary as a worker subprocess:
// it listens on loopback, prints the bound address, serves one driver
// connection, and exits.
const workerEnv = "MPCNET_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

func workerMain() int {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(lis.Addr().String())
	if err := mpcnet.ServeOne(lis); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// workload is the scripted round program of the equivalence suites:
// hash partition, RNG re-route with an arity-0 decision stream, and a
// sampled broadcast.
func workload(c *mpc.Cluster, input *relation.Relation) {
	c.ScatterRoundRobin(input)
	c.Round("partition", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel("R")
		st := out.Open("H", "x", "y", "z")
		for i := 0; i < frag.Len(); i++ {
			row := frag.Row(i)
			st.SendRow(relation.Bucket(relation.HashRow(row, []int{0}, 42), s.P()), row)
		}
	})
	c.Round("reroute", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel("H")
		if frag == nil {
			return
		}
		st := out.Open("G", "x", "y", "z")
		done := out.Open("done")
		for i := 0; i < frag.Len(); i++ {
			st.SendRow(s.Rng().Intn(s.P()), frag.Row(i))
		}
		done.Send(0)
	})
	c.Round("sample", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel("G")
		if frag == nil || frag.Len() == 0 {
			return
		}
		out.Open("S", "x", "y", "z").Broadcast(frag.Row(s.Rng().Intn(frag.Len()))...)
	})
}

// runWorkload runs the scripted program on a fresh cluster with the
// given transport (nil = the default local one) and returns it plus its trace.
func runWorkload(p int, tr mpc.Transport, input *relation.Relation) (*mpc.Cluster, *trace.Recorder) {
	c := mpc.NewCluster(p, 11)
	rec := trace.NewRecorder()
	c.SetTracer(rec)
	if tr != nil {
		c.SetTransport(tr)
	}
	workload(c, input)
	return c, rec
}

// assertSameRun asserts metering, per-server fragments, and traces are
// identical between the reference and the TCP run.
func assertSameRun(t *testing.T, want, got *mpc.Cluster, wantRec, gotRec *trace.Recorder) {
	t.Helper()
	ws, gs := want.Metrics().RoundStats(), got.Metrics().RoundStats()
	if len(ws) != len(gs) {
		t.Fatalf("rounds %d vs %d", len(ws), len(gs))
	}
	for i := range ws {
		if ws[i].Name != gs[i].Name {
			t.Fatalf("round %d: %q vs %q", i, ws[i].Name, gs[i].Name)
		}
		for d := range ws[i].Recv {
			if ws[i].Recv[d] != gs[i].Recv[d] || ws[i].RecvWords[d] != gs[i].RecvWords[d] {
				t.Fatalf("round %q server %d: (%d,%d) vs (%d,%d)", ws[i].Name, d,
					ws[i].Recv[d], ws[i].RecvWords[d], gs[i].Recv[d], gs[i].RecvWords[d])
			}
		}
	}
	for _, name := range []string{"R", "H", "G", "S", "done"} {
		for i := 0; i < want.P(); i++ {
			fw, fg := want.Server(i).Rel(name), got.Server(i).Rel(name)
			if (fw == nil) != (fg == nil) {
				t.Fatalf("%s server %d: present %v vs %v", name, i, fw != nil, fg != nil)
			}
			if fw == nil {
				continue
			}
			if fw.Len() != fg.Len() {
				t.Fatalf("%s server %d: %d vs %d tuples", name, i, fw.Len(), fg.Len())
			}
			for r := 0; r < fw.Len(); r++ {
				rw, rg := fw.Row(r), fg.Row(r)
				for j := range rw {
					if rw[j] != rg[j] {
						t.Fatalf("%s server %d row %d: %v vs %v", name, i, r, rw, rg)
					}
				}
			}
		}
	}
	we, ge := wantRec.Events(), gotRec.Events()
	if len(we) != len(ge) {
		t.Fatalf("trace: %d vs %d events", len(we), len(ge))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("trace event %d: %+v vs %+v", i, we[i], ge[i])
		}
	}
}

// TestLoopbackEquivalence: the TCP backend over loopback workers must
// reproduce the local transport bit for bit — fragments, metering,
// traces — across skews, cluster sizes, and worker counts that divide
// the destinations unevenly.
func TestLoopbackEquivalence(t *testing.T) {
	for _, skew := range testkit.AllSkews {
		for _, cfg := range []struct{ p, workers int }{{2, 1}, {5, 2}, {8, 3}} {
			skew, cfg := skew, cfg
			t.Run(fmt.Sprintf("%s/p%d/w%d", skew, cfg.p, cfg.workers), func(t *testing.T) {
				input := testkit.GenRelation("R", []string{"x", "y", "z"}, skew, testkit.GenConfig{Tuples: 400}, 29)
				want, wantRec := runWorkload(cfg.p, nil, input)
				tr, err := mpcnet.NewLoopback(cfg.p, mpcnet.Options{Workers: cfg.workers})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				got, gotRec := runWorkload(cfg.p, tr, input)
				assertSameRun(t, want, got, wantRec, gotRec)
			})
		}
	}
}

// TestChunkedFramesEquivalence: MaxFrameTuples=1 forces every tuple
// into its own DATA frame; chunked landings must still be bit-identical.
func TestChunkedFramesEquivalence(t *testing.T) {
	input := testkit.GenRelation("R", []string{"x", "y", "z"}, testkit.SkewZipf, testkit.GenConfig{Tuples: 120}, 3)
	want, wantRec := runWorkload(4, nil, input)
	tr, err := mpcnet.NewLoopback(4, mpcnet.Options{Workers: 2, MaxFrameTuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	got, gotRec := runWorkload(4, tr, input)
	assertSameRun(t, want, got, wantRec, gotRec)
}

// TestReceiversPresizedOnEveryBackend: the commit presizes every
// receiving relation before the transport lands into it, so after a TCP
// round — chunked frames included — every received relation's storage
// is exactly full, as it is on the local transport.
func TestReceiversPresizedOnEveryBackend(t *testing.T) {
	input := testkit.GenRelation("R", []string{"x", "y", "z"}, testkit.SkewHeavy, testkit.GenConfig{Tuples: 400}, 13)
	for _, opts := range []mpcnet.Options{{Workers: 2}, {Workers: 3, MaxFrameTuples: 7}} {
		tr, err := mpcnet.NewLoopback(5, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for _, backend := range []mpc.Transport{nil, tr} {
			c, _ := runWorkload(5, backend, input)
			for _, name := range []string{"H", "G", "S", "done"} {
				for i := 0; i < c.P(); i++ {
					if rel := c.Server(i).Rel(name); rel != nil && rel.Cap() != rel.Words() {
						t.Fatalf("%+v: %s on server %d: cap %d for %d words", opts, name, i, rel.Cap(), rel.Words())
					}
				}
			}
		}
	}
}

// TestWideFragmentFitsFrames: 7 000 tuples of arity 300 whose values
// all take 8 bytes are more than one frame can hold under the default
// tuple cap, so the driver chunks them by bytes and the round lands
// every value.
func TestWideFragmentFitsFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("a 17 MB fragment in -short")
	}
	const tuples, arity = 7000, 300
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	value := func(i int) relation.Value { return math.MinInt64 + relation.Value(i) }
	tr, err := mpcnet.NewLoopback(2, mpcnet.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := mpc.NewCluster(2, 1)
	c.SetTransport(tr)
	c.Round("wide", func(s *mpc.Server, out *mpc.Out) {
		if s.ID() != 0 {
			return
		}
		st := out.Open("W", attrs...)
		row := make([]relation.Value, arity)
		for i := 0; i < tuples; i++ {
			for j := range row {
				row[j] = value(i*arity + j)
			}
			st.SendRow(1, row)
		}
	})
	rel := c.Server(1).Rel("W")
	if rel.Len() != tuples {
		t.Fatalf("landed %d tuples, want %d", rel.Len(), tuples)
	}
	for i := 0; i < tuples; i++ {
		for j, v := range rel.Row(i) {
			if v != value(i*arity+j) {
				t.Fatalf("row %d value %d: %d, want %d", i, j, v, value(i*arity+j))
			}
		}
	}
}

// TestLoopbackFailureLeaksNothing: when NewLoopback's Dial fails, the
// listeners it opened are closed, so no worker goroutine is left
// waiting in Accept.
func TestLoopbackFailureLeaksNothing(t *testing.T) {
	base := settledGoroutines()
	if _, err := mpcnet.NewLoopback(0, mpcnet.Options{Workers: 3}); err == nil {
		t.Fatal("cluster size 0 accepted")
	}
	if got := settledGoroutines(); got > base {
		t.Fatalf("%d goroutines after the failed call, %d before", got, base)
	}
}

// TestLoopbackCloseLeavesNoWorker: a loopback transport's workers have
// exited when Close returns, so nothing it started runs, or allocates,
// after it.
func TestLoopbackCloseLeavesNoWorker(t *testing.T) {
	tr, err := mpcnet.NewLoopback(3, mpcnet.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(3, tr, testkit.GenRelation("R", []string{"x", "y", "z"}, testkit.SkewUniform, testkit.GenConfig{Tuples: 90}, 1))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "mpcnet.ServeOne") {
		t.Fatalf("a loopback worker still runs once Close returned:\n%s", stacks)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 50 ms, or after 5 s.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestTransportReuse: one transport serves several consecutive clusters
// of the same size (the sweep pattern testkit uses), with barriers
// keeping rounds separated.
func TestTransportReuse(t *testing.T) {
	tr, err := mpcnet.NewLoopback(3, mpcnet.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for run := 0; run < 3; run++ {
		input := testkit.GenRelation("R", []string{"x", "y", "z"}, testkit.SkewUniform, testkit.GenConfig{Tuples: 90}, int64(run))
		want, wantRec := runWorkload(3, nil, input)
		got, gotRec := runWorkload(3, tr, input)
		assertSameRun(t, want, got, wantRec, gotRec)
	}
}

// TestClusterSizeMismatch: a transport dialed for p servers must refuse
// rounds from a differently-sized cluster instead of shipping fragments
// to destinations no worker owns.
func TestClusterSizeMismatch(t *testing.T) {
	tr, err := mpcnet.NewLoopback(4, mpcnet.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := mpc.NewCluster(5, 1)
	c.SetTransport(tr)
	c.Round("r", func(s *mpc.Server, out *mpc.Out) {
		out.Open("X", "a").Send(0, 1)
	})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "mpcnet: cluster of 5 servers on transport dialed for 4") {
		t.Fatalf("size-mismatched round did not fail: Err %v", err)
	}
	if c.Metrics().Rounds() != 0 {
		t.Fatalf("size-mismatched round was metered: %v", c.Metrics())
	}
}

// countingTransport counts the rounds that reach the wrapped transport's
// Deliver — the only place a round's frames are written.
type countingTransport struct {
	mpc.Transport
	delivers int
}

func (ct *countingTransport) Deliver(v *mpc.RoundView) error {
	ct.delivers++
	return ct.Transport.Deliver(v)
}

// TestDuplicateAttributeSameOnEveryBackend: a stream schema that names
// an attribute twice is rejected by Out.Open at the call site, so the
// local transport and loopback TCP fail the round with the identical
// error text and the TCP backend never writes a frame for the round.
func TestDuplicateAttributeSameOnEveryBackend(t *testing.T) {
	tcp, err := mpcnet.NewLoopback(2, mpcnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	wire := &countingTransport{Transport: tcp}
	var texts []string
	for _, tr := range []mpc.Transport{nil, wire} {
		c := mpc.NewCluster(2, 1)
		c.SetTransport(tr)
		c.Round("dup", func(s *mpc.Server, out *mpc.Out) {
			if s.ID() == 0 {
				out.Open("x", "a", "a").Send(1, 1, 2)
			}
		})
		texts = append(texts, fmt.Sprint(c.Err()))
	}
	want := `mpc: round "dup": server 0 panicked: mpc: stream x opened with duplicate attribute "a"`
	if texts[0] != want || texts[1] != want {
		t.Fatalf("errors %q, want both %q", texts, want)
	}
	if wire.delivers != 0 {
		t.Fatalf("%d rounds reached the TCP transport", wire.delivers)
	}
}

// TestSubprocessWorkers runs the same equivalence check with workers in
// real separate processes (the test binary re-executed in worker mode),
// so the bytes cross genuine OS socket boundaries between processes —
// the deployment shape `mpcrun -transport=tcp` uses.
func TestSubprocessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess workers in -short")
	}
	const nworkers = 2
	addrs := make([]string, nworkers)
	for i := range addrs {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), workerEnv+"=1")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			t.Fatalf("worker %d printed no address: %v", i, sc.Err())
		}
		addrs[i] = sc.Text()
	}
	input := testkit.GenRelation("R", []string{"x", "y", "z"}, testkit.SkewHeavy, testkit.GenConfig{Tuples: 300}, 17)
	want, wantRec := runWorkload(4, nil, input)
	tr, err := mpcnet.Dial(4, addrs, mpcnet.Options{WriteTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	got, gotRec := runWorkload(4, tr, input)
	assertSameRun(t, want, got, wantRec, gotRec)
}
