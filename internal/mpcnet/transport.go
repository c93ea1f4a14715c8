// Package mpcnet is the TCP backend of the mpc transport seam: the
// same rounds, fragments, and (L, r, C) metering as the in-process
// transport, with delivery physically crossing real sockets. See codec.go
// for the wire format and worker.go for the data-plane protocol. The
// backend is deterministic by construction — per-connection FIFO order
// plus dst-major canonical write order reproduce the local transport's
// delivery order bit for bit, which the cross-backend differential
// matrix in internal/testkit pins.
package mpcnet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"mpcquery/internal/mpc"
)

// DefaultMaxFrameTuples caps the tuples per DATA frame: large fragments
// are chunked so one skewed destination cannot produce an oversized
// frame or starve the write buffer.
const DefaultMaxFrameTuples = 8192

// Options configures the driver side of the TCP transport.
type Options struct {
	// Workers is the number of worker endpoints NewLoopback spawns
	// (ignored by Dial, which gets one worker per address). 0 means
	// min(p, 4).
	Workers int
	// WriteTimeout, when positive, bounds each socket write so a stuck
	// worker fails the round instead of wedging the driver.
	WriteTimeout time.Duration
	// MaxFrameTuples caps tuples per DATA frame. 0 means
	// DefaultMaxFrameTuples.
	MaxFrameTuples int
}

func (o Options) maxTuples() int64 {
	if o.MaxFrameTuples <= 0 {
		return DefaultMaxFrameTuples
	}
	return int64(o.MaxFrameTuples)
}

// Transport ships rounds to mpcnet workers over TCP. It implements
// mpc.Transport; attach it with (*mpc.Cluster).SetTransport. A
// Transport serves one cluster at a time (Deliver is not reentrant).
type Transport struct {
	p     int
	opts  Options
	conns []*workerConn
	seq   uint64
	// workers, set by NewLoopback, counts its in-process workers still
	// serving; Close waits for them.
	workers *sync.WaitGroup
}

// workerConn is the driver's end of one worker connection. The worker
// owns destinations {dst : dst mod len(conns) == idx}; connections have
// disjoint shards, so shard deliveries run concurrently without ever
// landing into one destination from two goroutines.
type workerConn struct {
	idx int
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
}

// Dial connects to one worker per address, handshakes, and returns a
// transport for clusters of size p. The worker at addrs[i] owns
// destination shard i mod len(addrs).
func Dial(p int, addrs []string, opts Options) (*Transport, error) {
	if p < 1 {
		return nil, fmt.Errorf("mpcnet: cluster size %d", p)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("mpcnet: no worker addresses")
	}
	t := &Transport{p: p, opts: opts}
	for i, addr := range addrs {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("mpcnet: worker %d: %w", i, err)
		}
		cn := &workerConn{
			idx: i,
			nc:  nc,
			br:  bufio.NewReaderSize(nc, 1<<16),
			bw:  bufio.NewWriterSize(nc, 1<<16),
		}
		t.conns = append(t.conns, cn)
		if err := handshake(cn, p, len(addrs)); err != nil {
			t.Close()
			return nil, fmt.Errorf("mpcnet: worker %d: %w", i, err)
		}
	}
	return t, nil
}

// NewLoopback spawns opts.Workers in-process workers on loopback
// listeners and dials them — same wire protocol and code path as
// separate worker processes, no subprocess management. This is the
// backend the differential test matrix runs against.
func NewLoopback(p int, opts Options) (*Transport, error) {
	n := opts.Workers
	if n <= 0 {
		n = p
		if n > 4 {
			n = 4
		}
	}
	// Each worker has accepted its connection once Dial returns, so the
	// listeners close on every path: on an error that ends the workers
	// still waiting in Accept.
	addrs := make([]string, n)
	workers := new(sync.WaitGroup)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("mpcnet: loopback worker %d: %w", i, err)
		}
		defer lis.Close()
		addrs[i] = lis.Addr().String()
		workers.Add(1)
		go func() {
			defer workers.Done()
			ServeOne(lis) //nolint:errcheck // a worker error surfaces as a driver I/O error
		}()
	}
	t, err := Dial(p, addrs, opts)
	if err == nil {
		t.workers = workers
	}
	return t, err
}

// handshake announces the topology to one worker and verifies the
// protocol version on its HELLOACK.
func handshake(cn *workerConn, p, nworkers int) error {
	if err := writeFrame(cn.bw, appendUints(nil, kindHello, protoVersion, uint64(p), uint64(nworkers), uint64(cn.idx))); err != nil {
		return err
	}
	if err := cn.bw.Flush(); err != nil {
		return err
	}
	payload, err := readFrame(cn.br, nil)
	if err != nil {
		return err
	}
	var v uint64
	if err := decodeUints(payload, kindHelloAck, &v); err != nil {
		return err
	}
	if v != protoVersion {
		return fmt.Errorf("worker speaks version %d, driver %d", v, protoVersion)
	}
	return nil
}

// Deliver ships the round: each worker connection concurrently streams
// its shard's fragments in canonical dst-major order, posts the FLUSH
// barrier, then lands the echoed fragments. TCP's per-connection FIFO
// plus the worker's arrival-order echo make the landing order per
// destination exactly the local transport's.
func (t *Transport) Deliver(v *mpc.RoundView) error {
	if t.conns == nil {
		return fmt.Errorf("mpcnet: deliver on a closed transport: %w", net.ErrClosed)
	}
	if v.P() != t.p {
		return fmt.Errorf("mpcnet: cluster of %d servers on transport dialed for %d", v.P(), t.p)
	}
	seq := t.seq
	t.seq++
	errs := make(chan error, len(t.conns))
	for _, cn := range t.conns {
		go func(cn *workerConn) {
			errs <- cn.deliverShard(v, seq, len(t.conns), t.opts)
		}(cn)
	}
	var firstErr error
	for range t.conns {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// deliverShard runs one connection's half of a round barrier.
func (cn *workerConn) deliverShard(v *mpc.RoundView, seq uint64, nworkers int, opts Options) error {
	maxTuples := opts.maxTuples()
	var scratch []byte
	sent := 0
	for dst := cn.idx; dst < v.P(); dst += nworkers {
		for src := 0; src < v.P(); src++ {
			for i := 0; i < v.Streams(src); i++ {
				sv := v.Stream(src, i)
				flat, n := sv.Fragment(dst)
				if n == 0 {
					continue
				}
				arity := int64(len(sv.Attrs()))
				chunk := frameTuples(maxTuples, sv.Name(), sv.Attrs(), flat)
				for off := int64(0); off < n; {
					k := min(chunk, n-off)
					scratch = appendData(scratch[:0], dst, sv.Name(), sv.Attrs(), flat[off*arity:(off+k)*arity], k)
					if err := cn.write(scratch, opts); err != nil {
						return err
					}
					sent++
					off += k
				}
			}
		}
	}
	if err := cn.write(appendUints(scratch[:0], kindFlush, seq), opts); err != nil {
		return err
	}
	if err := cn.flush(opts); err != nil {
		return err
	}

	// The echo is read into the send scratch, which the writes no longer
	// need, and decoded by one decoder; both are reused frame to frame
	// and dropped when the round returns. Land copies each frame's values
	// into the receiver the commit presized.
	buf := scratch
	var dec decoder
	landed := 0
	for {
		payload, err := readFrame(cn.br, buf)
		if err != nil {
			return fmt.Errorf("mpcnet: worker %d echo: %w", cn.idx, err)
		}
		buf = payload
		switch payload[0] {
		case kindData:
			df, err := scanData(payload, &dec)
			if err != nil {
				return err
			}
			if df.dst%nworkers != cn.idx {
				return fmt.Errorf("mpcnet: worker %d echoed fragment for server %d", cn.idx, df.dst)
			}
			if err := v.Land(df.dst, df.name, df.attrs, df.flat, df.tuples); err != nil {
				return err
			}
			landed++
		case kindEnd:
			var gotSeq, frames uint64
			if err := decodeUints(payload, kindEnd, &gotSeq, &frames); err != nil {
				return err
			}
			if gotSeq != seq {
				return fmt.Errorf("mpcnet: worker %d finished round %d during round %d", cn.idx, gotSeq, seq)
			}
			if frames != uint64(sent) || landed != sent {
				return fmt.Errorf("mpcnet: worker %d: sent %d frames, echoed %d, landed %d",
					cn.idx, sent, frames, landed)
			}
			return nil
		default:
			return fmt.Errorf("mpcnet: worker %d echoed frame kind %d", cn.idx, payload[0])
		}
	}
}

func (cn *workerConn) write(payload []byte, opts Options) error {
	if opts.WriteTimeout > 0 {
		if err := cn.nc.SetWriteDeadline(time.Now().Add(opts.WriteTimeout)); err != nil {
			return err
		}
	}
	return writeFrame(cn.bw, payload)
}

func (cn *workerConn) flush(opts Options) error {
	if opts.WriteTimeout > 0 {
		if err := cn.nc.SetWriteDeadline(time.Now().Add(opts.WriteTimeout)); err != nil {
			return err
		}
	}
	if err := cn.bw.Flush(); err != nil {
		return err
	}
	return cn.nc.SetWriteDeadline(time.Time{})
}

// Close sends BYE to every worker and closes the connections. Workers
// exit cleanly on BYE; Close after a failed round just drops the
// sockets. A loopback transport's workers have exited when it returns.
func (t *Transport) Close() error {
	var firstErr error
	for _, cn := range t.conns {
		if cn == nil || cn.nc == nil {
			continue
		}
		if err := writeFrame(cn.bw, appendUints(nil, kindBye)); err == nil {
			_ = cn.bw.Flush()
		}
		if err := cn.nc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.conns = nil
	if t.workers != nil {
		t.workers.Wait()
	}
	return firstErr
}
