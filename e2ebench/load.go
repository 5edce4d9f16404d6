package main

// The load generator: a minimal keep-alive HTTP/1.1 client that writes
// pre-encoded requests, an open-loop phase that sends on a fixed schedule
// and times each request from its due time, and a closed-loop phase that
// measures capacity.  Both use at most one connection per CPU.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// ioTimeout bounds one request's round trip; a request that takes longer
// fails.
const ioTimeout = 30 * time.Second

// conn is one keep-alive connection to the server.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

// do writes one pre-encoded request and reads the whole response.  A
// transport error drops the connection; the next call redials.
func (c *conn) do(wire net.Buffers) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, ioTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	status, body, err := c.roundTrip(wire)
	if err != nil {
		c.close()
	}
	return status, body, err
}

func (c *conn) roundTrip(wire net.Buffers) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := wire.WriteTo(c.c); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	// Bodies wait in memory until their phase ends, so size them exactly
	// when the length is known.
	var body []byte
	if resp.ContentLength >= 0 {
		body = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	if err == nil && resp.Close {
		c.close()
	}
	return resp.StatusCode, body, err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// sample is one request as the generator saw it.  Times are offsets from
// the phase start; due is the scheduled send time (equal to sent in a
// closed loop).
type sample struct {
	req             *request
	due, sent, done time.Duration
	// lag is how late the generator sent the request once a connection
	// was free: its own scheduling delay, not queueing behind the server.
	lag    time.Duration
	lat    time.Duration // see onTimeLatencies
	status int
	body   []byte
	err    error
}

// latency is the request's open-loop latency (see onTimeLatencies).
func (s *sample) latency() time.Duration { return s.lat }

// onTimeLatencies sets each open-loop sample's latency to what it would
// have been had the generator sent every request exactly when due: the
// requests are replayed in due order onto the earliest free of conns
// connections, each holding its connection for its measured round trip.
// A slow answer still delays every request queued behind it, from its due
// time.  What drops out is the generator's own oversleeping, which is
// common: an idle Go process wakes sleepers on millisecond ticks, coarser
// than the gaps between sends.  (A nanosleep would be finer, but it holds
// the sleeping worker's P, which then delays the other connection's
// reads.)
func onTimeLatencies(samples []sample, conns int) {
	free := make([]time.Duration, conns)
	for i := range samples {
		s := &samples[i]
		c := 0
		for j := range free {
			if free[j] < free[c] {
				c = j
			}
		}
		done := max(s.due, free[c]) + s.done - s.sent
		free[c] = done
		s.lat = done - s.due
	}
}

// openLoop sends reqs at rate per second over conns connections and
// returns one sample per request.  Each worker takes the earliest unsent
// request, sleeps until it is due, and sends it; when every connection is
// busy, requests wait and their latency grows from their due time, so a
// stall is charged to every request it delays.  With tr set, each request
// also records a client span.
func openLoop(addr string, conns int, reqs []*request, rate float64, tr *tracer) []sample {
	samples := make([]sample, len(reqs))
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{addr: addr}
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := time.Duration(i) * period
				free := time.Since(start)
				if free < due {
					time.Sleep(due - free)
				}
				s := &samples[i]
				s.req, s.due = reqs[i], due
				s.sent = time.Since(start)
				s.lag = s.sent - max(due, free)
				s.status, s.body, s.err = c.do(s.req.wire())
				s.done = time.Since(start)
				if tr != nil {
					tr.clientSpan(int64(i), start.Add(s.sent), start.Add(s.done))
				}
			}
		}()
	}
	wg.Wait()
	onTimeLatencies(samples, conns)
	return samples
}

// closedLoop keeps conns requests in flight for dur, each connection
// sending its next request as soon as the previous one is answered.  It
// stops early when take runs dry, and returns the samples and the time
// until the last answer.
func closedLoop(addr string, conns int, take func() *request, dur time.Duration) ([]sample, time.Duration) {
	var mu sync.Mutex
	var samples []sample
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{addr: addr}
			defer c.close()
			var local []sample
			for time.Since(start) < dur {
				mu.Lock()
				req := take()
				mu.Unlock()
				if req == nil {
					break
				}
				s := sample{req: req, sent: time.Since(start)}
				s.due = s.sent
				s.status, s.body, s.err = c.do(req.wire())
				s.done = time.Since(start)
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// answer is a checked sample.
type answer struct {
	*sample
	resp   service.SolveResponse // zero unless kept
	solver string                // the solver that answered, when it passed
	err    error                 // nil when the answer passed every check
}

// checkSamples decodes and checks every sample after its phase, so the
// checking cost stays out of the timings.  Unless keep is set, only the
// verdict and the answering solver are kept, which bounds the memory a
// long closed loop holds.
func checkSamples(samples []sample, keep bool) []answer {
	out := make([]answer, len(samples))
	for i := range samples {
		s := &samples[i]
		a := answer{sample: s}
		switch {
		case s.err != nil:
			a.err = s.err
		case s.status != http.StatusOK:
			a.err = fmt.Errorf("HTTP %d: %.200s", s.status, s.body)
		default:
			if err := json.Unmarshal(s.body, &a.resp); err != nil {
				a.err = fmt.Errorf("decode answer: %v", err)
			} else if err := checkAnswer(s.req, &a.resp); err != nil {
				a.err = err
			} else {
				a.err = checkReference(s.req, a.resp.Report)
			}
		}
		s.body = nil
		if a.err == nil {
			a.solver = a.resp.Report.Solver
		}
		if !keep {
			a.resp = service.SolveResponse{}
		}
		out[i] = a
	}
	return out
}
