package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"iokast/internal/hdr"
)

// statusClasses is the per-endpoint status-code table: exact codes up to
// 599 (a fixed array, so recording a status is one increment).
const statusMax = 600

// endpointStats accumulates one worker's view of one endpoint. Workers
// never share stats objects, so the record path takes no locks.
type endpointStats struct {
	hist      hdr.Histogram
	statuses  [statusMax]int64
	transport int64 // requests that never produced an HTTP status
}

// Result is the merged outcome of a run, keyed by endpoint label
// (Op.Endpoint()).
type Result struct {
	PerEndpoint map[string]*endpointStats
	Wall        time.Duration // run wall-clock from first due to drain
	Requests    int64
}

// Runner drives one request schedule against a target server.
type Runner struct {
	// Target is the base URL, e.g. "http://127.0.0.1:8080".
	Target string
	// Workers bounds in-flight requests; 0 means 8 per CPU. The pool
	// must be deep enough that the schedule, not the pool, sets the
	// arrival times — but when the server lags, the queue in front of
	// the pool grows and the wait lands in the recorded latency, which
	// is exactly the open-loop visibility the harness exists for.
	Workers int
	// Client is the HTTP client; nil gets a pooled transport sized for
	// Workers.
	Client *http.Client
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return 8 * runtime.GOMAXPROCS(0)
}

func (r *Runner) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	w := r.workers()
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        w,
		MaxIdleConnsPerHost: w,
	}}
}

// Run executes the schedule open-loop and returns merged stats. The
// schedule must be sorted by Due (BuildSchedule's contract). Latency is
// measured from each request's *scheduled* time: if every worker is busy
// when a request comes due, the time it spends queued counts, so a
// saturated server shows up as tail latency instead of silently thinning
// the offered load (coordinated omission).
func (r *Runner) Run(ctx context.Context, schedule []Request) (*Result, error) {
	if len(schedule) == 0 {
		return &Result{PerEndpoint: map[string]*endpointStats{}}, nil
	}
	client := r.client()
	nw := r.workers()

	// The queue holds the whole schedule, so the dispatcher can never be
	// blocked by slow workers — its sleeps alone set the arrival times.
	queue := make(chan int, len(schedule))
	start := time.Now()

	perWorker := make([]map[string]*endpointStats, nw)
	done := make(chan int, nw)
	for w := 0; w < nw; w++ {
		perWorker[w] = make(map[string]*endpointStats)
		go func(w int) {
			executed := 0
			for i := range queue {
				req := &schedule[i]
				ep := req.Op.Endpoint()
				st := perWorker[w][ep]
				if st == nil {
					st = &endpointStats{}
					perWorker[w][ep] = st
				}
				status := r.do(ctx, client, req)
				// Scheduled-time latency: includes queueing delay both in
				// the worker pool and in the server.
				st.hist.Record(time.Since(start.Add(req.Due)))
				if status > 0 && status < statusMax {
					st.statuses[status]++
				} else {
					st.transport++
				}
				executed++
			}
			done <- executed
		}(w)
	}

	// Dispatcher: release each request at its due time.
	dispatched := 0
dispatch:
	for i := range schedule {
		wait := time.Until(start.Add(schedule[i].Due))
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
		} else if ctx.Err() != nil {
			break dispatch
		}
		queue <- i
		dispatched++
	}
	close(queue)

	total := int64(0)
	for w := 0; w < nw; w++ {
		total += int64(<-done)
	}
	res := &Result{
		PerEndpoint: map[string]*endpointStats{},
		Wall:        time.Since(start),
		Requests:    total,
	}
	for _, stats := range perWorker {
		for ep, st := range stats {
			dst := res.PerEndpoint[ep]
			if dst == nil {
				dst = &endpointStats{}
				res.PerEndpoint[ep] = dst
			}
			dst.hist.Merge(&st.hist)
			for s, c := range st.statuses {
				dst.statuses[s] += c
			}
			dst.transport += st.transport
		}
	}
	if err := ctx.Err(); err != nil && dispatched < len(schedule) {
		return res, fmt.Errorf("load: run cancelled after %d/%d requests: %w", dispatched, len(schedule), err)
	}
	return res, nil
}

// do executes one request and returns its HTTP status, or 0 for a
// transport-level failure.
func (r *Runner) do(ctx context.Context, client *http.Client, req *Request) int {
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.Method, r.Target+req.Path, body)
	if err != nil {
		return 0
	}
	resp, err := client.Do(hr)
	if err != nil {
		return 0
	}
	// Drain so the connection is reusable; the response content itself
	// is not the harness's business.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// Prefill ingests bodies via /traces/batch in chunks and labels them
// with their categories via /labels, giving query and delete ops a
// populated, labelled id space before the timed run. It returns the
// number of traces ingested and fails fast on any non-2xx answer — a
// half-prefilled corpus would silently skew every ratio the report
// prints.
func (r *Runner) Prefill(ctx context.Context, bodies, labels []string) (int, error) {
	client := r.client()
	const chunk = 256
	for at := 0; at < len(bodies); at += chunk {
		end := at + chunk
		if end > len(bodies) {
			end = len(bodies)
		}
		breq, _ := json.Marshal(struct {
			Traces []string `json:"traces"`
		}{bodies[at:end]})
		status, rbody := r.doJSON(ctx, client, "POST", "/traces/batch", string(breq))
		if status != http.StatusCreated {
			return at, fmt.Errorf("load: prefill batch [%d,%d): status %d: %s", at, end, status, rbody)
		}
	}
	if len(labels) > 0 {
		type asn struct {
			ID    int    `json:"id"`
			Label string `json:"label"`
		}
		as := make([]asn, len(labels))
		for i, l := range labels {
			as[i] = asn{ID: i, Label: l}
		}
		lreq, _ := json.Marshal(struct {
			Labels []asn `json:"labels"`
		}{as})
		status, rbody := r.doJSON(ctx, client, "POST", "/labels", string(lreq))
		if status != http.StatusOK {
			return len(bodies), fmt.Errorf("load: prefill labels: status %d: %s", status, rbody)
		}
	}
	return len(bodies), nil
}

func (r *Runner) doJSON(ctx context.Context, client *http.Client, method, path, body string) (int, string) {
	hr, err := http.NewRequestWithContext(ctx, method, r.Target+path, strings.NewReader(body))
	if err != nil {
		return 0, err.Error()
	}
	resp, err := client.Do(hr)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, strings.TrimSpace(string(b))
}
