package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// client is one HTTP connection to a server: its transport never opens a
// second connection, so a phase with n clients holds at most n.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole response body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	return c.send(method, path, body, true)
}

// send is do, with the response body read to the end and dropped unless
// keep is set: the load loops only keep the bodies they use, so the load
// generator's own allocation and GC stay small.
func (c *client) send(method, path string, body []byte, keep bool) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !keep {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// tally counts attempted and failed requests over a whole run. A failure is
// a transport error or a status the request should never get; the
// benchmark's workloads send nothing that may legitimately fail.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string // the first few failures, for the report
}

func (t *tally) record(what string, status int, err error, ok func(int) bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil && ok(status) {
		return true
	}
	t.failed++
	if len(t.first) < 5 {
		if err != nil {
			t.first = append(t.first, fmt.Sprintf("%s: %v", what, err))
		} else {
			t.first = append(t.first, fmt.Sprintf("%s: status %d", what, status))
		}
	}
	return false
}

func is2xx(s int) bool { return s >= 200 && s < 300 }

// call sends a request, counts it, and decodes a JSON answer into out when
// out is non-nil. It returns false when the request failed.
func (c *client) call(t *tally, method, path string, body []byte, out any) bool {
	status, b, err := c.do(method, path, body)
	if !t.record(method+" "+path, status, err, is2xx) {
		return false
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			t.mu.Lock()
			t.failed++
			t.first = append(t.first, fmt.Sprintf("%s %s: decode: %v", method, path, err))
			t.mu.Unlock()
			return false
		}
	}
	return true
}

// sample is one timed request of a phase.
type sample struct {
	req  *request
	lat  time.Duration // from due (open loop) or send (closed loop) to the full response
	late time.Duration // open loop: how far behind its due time it was sent
	ok   bool
	resp []byte
}

// runClosed runs one closed loop per client: each client sends its next
// request as soon as the previous answer has been read, and after has
// returned when it is not nil. Time spent in after counts towards the
// wall time but not towards any latency.
func runClosed(cs []*client, reqs [][]request, t *tally, after func(sample)) ([]sample, time.Duration) {
	out := make([][]sample, len(cs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range reqs[i] {
				r := &reqs[i][j]
				start := time.Since(t0)
				status, b, err := cs[i].send(r.method, r.path, r.body, keepBody(r))
				lat := time.Since(t0) - start
				ok := t.record(r.op, status, err, is2xx)
				out[i] = append(out[i], sample{req: r, lat: lat, ok: ok, resp: b})
				if after != nil {
					after(out[i][len(out[i])-1])
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, wall
}

// runOpen sends a fixed schedule over len(cs) connections. A request that
// comes due while every connection is busy waits for the next free one, and
// its latency is counted from its due time, so a stall is charged to every
// request it delays.
func runOpen(cs []*client, reqs []request, t *tally) ([]sample, time.Duration) {
	next := make(chan int, len(reqs)) // one slot per request: never blocks
	for i := range reqs {
		next <- i
	}
	close(next)
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for j := range next {
				r := &reqs[j]
				if d := r.due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				start := time.Since(t0)
				status, b, err := c.send(r.method, r.path, r.body, keepBody(r))
				done := time.Since(t0)
				ok := t.record(r.op, status, err, is2xx)
				out[j] = sample{req: r, lat: done - r.due, late: start - r.due, ok: ok, resp: b}
			}
		}(cs[i])
	}
	wg.Wait()
	return out, time.Since(t0)
}

// keepBody reports whether the run needs r's response afterwards: only
// ingests, for the ids they were given.
func keepBody(r *request) bool { return r.op == opIngest || r.op == opBatch }

// latencies returns the latencies in ms of the successful samples of op.
func latencies(ss []sample, op string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.req.op == op && s.ok {
			out = append(out, ms(s.lat))
		}
	}
	return out
}
