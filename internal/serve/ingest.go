package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"iokast/internal/stream"
)

// maxIngestLine bounds one NDJSON event line on POST /ingest.
const maxIngestLine = 1 << 20

// ingestLineBuffer is the event scanner's first buffer. Events are tens of
// bytes; the scanner grows the buffer up to maxIngestLine for longer ones.
const ingestLineBuffer = 4 << 10

// ingestIdleTimeout is the per-event read deadline on an /ingest body: the
// connection stays open as long as events keep arriving, and a client that
// goes silent this long is disconnected. This is what lets the server run
// without a global ReadTimeout (which would cap every stream's total
// lifetime) while still shedding stalled connections.
const ingestIdleTimeout = 60 * time.Second

// connSeq names anonymous per-connection sessions.
var connSeq atomic.Uint64

// ConfigureStream replaces the streaming-ingest session registry with one
// built from cfg; the classifier and trace conversion are always the
// server's own (so streamed and batch classifications are comparable) and
// need not be set. Call before the server starts accepting requests.
func (s *Server) ConfigureStream(cfg stream.Config) {
	cfg.Classifier = s.cls
	cfg.Convert = s.copt
	// The default registry built in finish owns a background sweeper; stop
	// it before letting the replacement take over.
	s.streams.Close()
	s.streams = stream.NewRegistry(cfg)
}

// ingestWriter is the NDJSON response side of /ingest. The status code is
// committed lazily: an error before the first result is a proper HTTP
// error; after results have streamed, errors become a terminal
// {"error": ...} line on the same stream.
type ingestWriter struct {
	w       http.ResponseWriter
	r       *http.Request
	rc      *http.ResponseController
	started bool
}

func (o *ingestWriter) start() {
	if o.started {
		return
	}
	o.started = true
	o.w.Header().Set("Content-Type", "application/x-ndjson")
	o.w.WriteHeader(http.StatusOK)
}

func (o *ingestWriter) result(res *stream.Result) {
	o.start()
	b, _ := json.Marshal(res)
	_, _ = o.w.Write(append(b, '\n'))
	_ = o.rc.Flush()
}

func (o *ingestWriter) fail(status int, format string, args ...any) {
	if !o.started {
		httpError(o.w, o.r, status, format, args...)
		return
	}
	b, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	_, _ = o.w.Write(append(b, '\n'))
	_ = o.rc.Flush()
}

// handleIngest is live trace ingestion: the request body is a stream of
// NDJSON events (structured ops, raw strace lines, end markers) assembled
// server-side into per-session traces, and the response streams back one
// NDJSON classification per completed window plus a final whole-trace
// verdict per ended session. Events with a "session" name feed durable
// named sessions that may span connections; events without one feed an
// anonymous session finalised when the request body ends. k and rerank
// follow the /classify conventions, so a session's final result is
// bit-identical to POSTing its assembled trace to /classify.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, r, http.StatusMethodNotAllowed, "POST /ingest?k=&rerank= with NDJSON events")
		return
	}
	k, rerank, err := similarParams(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	reg := s.streams
	rc := http.NewResponseController(w)
	out := &ingestWriter{w: w, r: r, rc: rc}

	var anon *stream.Session
	anonName := fmt.Sprintf("conn-%d", connSeq.Add(1))
	// An aborted connection must not leak its anonymous session.
	defer func() {
		if anon != nil {
			reg.Remove(anon.Name())
		}
	}()

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, ingestLineBuffer), maxIngestLine)
	lineNo := 0
	for {
		// Heartbeat the read deadline per event instead of a whole-request
		// ReadTimeout: streams may live arbitrarily long, silence may not.
		_ = rc.SetReadDeadline(time.Now().Add(ingestIdleTimeout))
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				out.fail(http.StatusBadRequest, "read events: %v", err)
				return
			}
			break
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		lineNo++
		ev, err := stream.ParseEvent(line)
		if err != nil {
			out.fail(http.StatusBadRequest, "event %d: %v", lineNo, err)
			return
		}

		var sess *stream.Session
		if ev.Session == "" {
			if anon == nil {
				if ev.End {
					continue // ending a session that never started: no-op
				}
				if anon, err = reg.Get(anonName); err != nil {
					out.fail(http.StatusServiceUnavailable, "%v", err)
					return
				}
			}
			sess = anon
		} else if sess, err = reg.Get(ev.Session); err != nil {
			out.fail(http.StatusServiceUnavailable, "%v", err)
			return
		}

		if ev.End {
			res, err := sess.Finish(k, rerank)
			reg.Remove(sess.Name())
			if sess == anon {
				anon = nil
			}
			if err != nil {
				out.fail(http.StatusBadRequest, "event %d: %v", lineNo, err)
				return
			}
			out.result(res)
			continue
		}
		res, err := sess.Feed(ev, k, rerank)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, stream.ErrSessionFull) {
				status = http.StatusRequestEntityTooLarge
				reg.Remove(sess.Name())
				if sess == anon {
					anon = nil
				}
			}
			out.fail(status, "event %d: %v", lineNo, err)
			return
		}
		if res != nil {
			out.result(res)
		}
	}

	// Body ended cleanly: finalise the connection's anonymous session. An
	// empty one (connected, sent nothing classifiable) just goes away.
	if anon != nil && anon.Ops() > 0 {
		res, err := anon.Finish(k, rerank)
		reg.Remove(anon.Name())
		anon = nil
		if err != nil {
			out.fail(http.StatusBadRequest, "finish: %v", err)
			return
		}
		out.result(res)
	}
	out.start() // an event-free request is still a valid, empty 200 stream
}
