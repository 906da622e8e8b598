// Command iokserve runs an HTTP similarity service backed by the corpus
// engine: traces are POSTed one at a time or in batches, converted to
// weighted strings, and inserted with one Kast kernel evaluation each (the
// self-similarity, at cut weight -cut); top-k neighbour queries and the
// similarity matrix evaluate pairwise kernel values on demand. The
// baseline kernels of the paper's comparisons are served by the batch
// CLIs (iokmatrix, iokexp), not here.
//
// With --data-dir the corpus is durable: every accepted mutation is
// appended to a CRC-checked write-ahead log before it is acknowledged, and
// snapshots bound replay time. A killed server restarts into a
// bit-identical corpus without clients re-sending anything.
//
// Every ingested trace is also embedded into a fixed-width sketch vector
// (internal/sketch), so similarity can be answered approximately — a scan
// of every sketch picks a shortlist, and an exact kernel rerank orders
// it — and for traces that are not in the corpus at all (query-by-trace).
// Full-rerank queries stay bit-identical to the exact path.
//
// The corpus is always internal/shard's supervisor over --shards=N
// independent engine+store pairs (N = 1 by default) behind one id space:
// each trace routed to exactly one shard by a seeded hash of its id,
// similarity queries fanned out to every shard in parallel and merged
// exactly, so answers are bit-identical at every shard count, /gram
// included. A data dir carries a MANIFEST pinning shard count, routing
// seed, and kernel/sketch config, and refuses to open under different
// flags; each shard's WAL and snapshots live in its own shard-NNN/
// subdirectory. A single-engine data dir from an earlier version (WAL and
// snapshots at its root) is refused; at --shards=1 the refusal names the
// one-line move that turns it into shard 0.
//
// Usage:
//
//	iokserve [-addr :8080] [-cut 2] [-nobytes] [-workers 0]
//	         [-data-dir DIR] [-snapshot-every 1024]
//	         [-nosync] [-sketch-dim 256] [-sketch-seed 0]
//	         [-shards 1] [-shard-seed 0] [-labels FILE]
//	         [-stream-window 256] [-stream-stride 64] [-max-sessions 1024]
//	         [-slow-request 1s] [-log-level info] [-pprof-addr ADDR]
//
// Endpoints:
//
//	POST   /traces           body = trace text; returns {"id": n, ...}
//	POST   /traces/batch     body = {"traces": ["...", ...]}; one WAL
//	                         commit for the whole batch
//	DELETE /traces/{id}      remove a trace from the corpus (durable)
//	GET    /similar?id=&k=   top-k most similar corpus entries (exact: one
//	                         kernel evaluation per live trace)
//	GET    /similar?id=&k=&approx=1&rerank=R
//	                         sketch-index shortlist, exact rerank of the top
//	                         R candidates (R=0: sketch scores only)
//	POST   /similar?k=&rerank=R
//	                         query-by-trace: body = trace text, compared
//	                         against the corpus but never ingested
//	POST   /labels           {"labels": [{"id": 0, "label": "reader"}, ...]}:
//	                         tag corpus ids (durable beside the data dir)
//	GET    /labels           label -> member count
//	DELETE /labels/{id}      remove one id's label
//	POST   /classify?k=&rerank=R
//	                         classify a trace body by similarity-weighted
//	                         k-NN vote over the labelled corpus; returns
//	                         {label, confidence, votes, neighbors}
//	POST   /ingest?k=&rerank=R
//	                         streaming ingest: NDJSON events (raw syscall ops
//	                         or strace lines) assembled into per-session
//	                         traces; window classifications and the final
//	                         whole-trace verdict stream back as NDJSON
//	GET    /gram             raw kernel matrix ({"ids": [...], "matrix": [[...]]}),
//	                         evaluated on demand; 413 above 1024 live traces
//	GET    /gram?normalized=1  paper-pipeline similarity (Eq. 12 + PSD repair)
//	GET    /healthz          liveness probe with the shard count; "degraded"
//	                         if persistence fails
//	GET    /metrics          Prometheus text exposition: every layer (HTTP,
//	                         engine, sketch index, store, shards, streaming)
//	                         reports into one registry
//	GET    /debug/store      {"shards": [...]}: WAL/snapshot statistics per
//	                         shard (404 without --data-dir)
//
// Observability: every request carries an X-Request-Id (client-supplied or
// generated) that tags its structured log lines; requests slower than
// -slow-request are logged at Warn. -pprof-addr starts net/http/pprof on a
// separate listener (off by default, so profiling endpoints never share
// the public address).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"iokast/internal/classify"
	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/obs"
	"iokast/internal/serve"
	"iokast/internal/shard"
	"iokast/internal/sketch"
	"iokast/internal/store"
	"iokast/internal/stream"
)

// listenAndAnnounce binds addr and prints one machine-parsable readiness
// line to w. Harnesses (cmd/iokload, CI) start iokserve with -addr
// 127.0.0.1:0 and read the actual port from this line instead of polling
// with sleep-loops; it is the only thing the server writes to stdout (logs
// go to stderr), so `awk '/^LISTENING/{print $2}'` is race-free.
func listenAndAnnounce(addr string, w io.Writer) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "LISTENING %s\n", ln.Addr())
	return ln, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cut := flag.Int("cut", 2, "Kast cut weight")
	noBytes := flag.Bool("nobytes", false, "ignore byte counts when converting traces")
	workers := flag.Int("workers", 0, "max goroutines for kernel evaluation (0 = GOMAXPROCS)")
	dataDir := flag.String("data-dir", "", "directory for WAL + snapshots; empty = in-memory only")
	snapshotEvery := flag.Int("snapshot-every", 1024, "mutations between automatic snapshots (<0 disables)")
	noSync := flag.Bool("nosync", false, "skip fsync per WAL append (faster, loses recent writes on machine crash)")
	sketchDim := flag.Int("sketch-dim", sketch.DefaultDim, "sketch vector width for approximate similarity (0 disables sketching)")
	sketchSeed := flag.Uint64("sketch-seed", 0, "seed for the sketch hashes (must match across restarts sharing a data dir to reuse persisted sketches)")
	shards := flag.Int("shards", 1, "number of corpus shards (pinned by a data dir's MANIFEST)")
	shardSeed := flag.Uint64("shard-seed", 0, "seed for the id-routing hash (pinned by a sharded data dir's MANIFEST)")
	labelsPath := flag.String("labels", "", "labels file for /classify (default <data-dir>/LABELS when -data-dir is set; in-memory otherwise)")
	streamWindow := flag.Int("stream-window", stream.DefaultWindow, "streaming ingest: classification window in operations")
	streamStride := flag.Int("stream-stride", stream.DefaultStride, "streaming ingest: operations between window classifications")
	maxSessions := flag.Int("max-sessions", stream.DefaultMaxSessions, "streaming ingest: maximum concurrently assembling sessions")
	slowRequest := flag.Duration("slow-request", time.Second, "log requests slower than this at Warn (0 disables)")
	logLevel := flag.String("log-level", "info", "structured-log level: debug (per-request lines), info, warn, or error")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	flag.Parse()

	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "iokserve: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "iokserve: -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// One registry for the whole stack: the engine, sketch index, store,
	// shard fan-out, streaming, and HTTP layers all report here, and GET
	// /metrics renders it.
	obsReg := obs.NewRegistry()

	eopt := engine.Options{
		Kernel: &core.Kast{CutWeight: *cut}, Workers: *workers,
		SketchDim: *sketchDim, SketchSeed: *sketchSeed,
	}
	if *sketchDim <= 0 {
		eopt.SketchDim = -1
	}
	sopt := store.Options{SnapshotEvery: *snapshotEvery, NoSync: *noSync}

	// The label registry rides beside the corpus: an explicit -labels file,
	// or <data-dir>/LABELS (next to the MANIFEST), or purely in-memory when
	// neither is given. Registry commits are atomic temp+rename writes, so a
	// kill preserves the last full table.
	var err error
	reg := classify.NewRegistry()
	regPath := *labelsPath
	if regPath == "" && *dataDir != "" {
		regPath = filepath.Join(*dataDir, classify.DefaultLabelsFile)
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "iokserve: %v\n", err)
			os.Exit(1)
		}
	}
	if regPath != "" {
		if reg, err = classify.OpenRegistry(regPath); err != nil {
			fmt.Fprintf(os.Stderr, "iokserve: open labels %s: %v\n", regPath, err)
			os.Exit(1)
		}
		if n := reg.Len(); n > 0 {
			log.Printf("iokserve: recovered %d labels from %s", n, regPath)
		}
	}

	// Obs hands the shard layer the registry so it can label each shard's
	// engine/store/fan-out series with shard="N" itself.
	shopt := shard.Options{Shards: *shards, Seed: *shardSeed, Engine: eopt, Store: sopt, Obs: obsReg}
	var (
		sh         *shard.Sharded
		checkpoint func() error // non-nil when shutdown must close the stores
	)
	if *dataDir != "" {
		if sh, err = shard.Open(*dataDir, shopt); err != nil {
			fmt.Fprintf(os.Stderr, "iokserve: open %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		log.Printf("iokserve: recovered %d traces across %d shards from %s", sh.Len(), sh.Shards(), *dataDir)
		checkpoint = sh.Close
	} else if sh, err = shard.New(shopt); err != nil {
		fmt.Fprintf(os.Stderr, "iokserve: %v\n", err)
		os.Exit(1)
	}
	srv := serve.NewSharded(sh, reg, core.Options{IgnoreBytes: *noBytes})

	srv.ConfigureStream(stream.Config{
		Window: *streamWindow, Stride: *streamStride, MaxSessions: *maxSessions,
		Metrics: stream.NewMetrics(obsReg),
	})
	srv.ConfigureTelemetry(serve.Telemetry{
		Registry: obsReg, Logger: logger, SlowRequest: *slowRequest,
	})

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: profiling never rides the
		// public address, and nothing here touches http.DefaultServeMux.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iokserve: pprof listen %s: %v\n", *pprofAddr, err)
			os.Exit(1)
		}
		log.Printf("iokserve: pprof on %s", pln.Addr())
		go func() {
			if err := http.Serve(pln, pmux); err != nil {
				log.Printf("iokserve: pprof server: %v", err)
			}
		}()
	}

	// No ReadTimeout: /ingest requests legitimately live as long as the
	// workload they stream, and the handler heartbeats its own per-event
	// read deadline instead. Slow-header and idle keep-alive connections
	// are still bounded, so a slowloris cannot pin accept slots for free.
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := listenAndAnnounce(*addr, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iokserve: %v\n", err)
		os.Exit(1)
	}

	done := make(chan struct{})
	if checkpoint != nil {
		// Checkpoint on SIGINT/SIGTERM so the next boot restores from the
		// snapshot instead of replaying the whole WAL. The HTTP server is
		// drained first: a mutation acknowledged mid-shutdown must still
		// be inside the final checkpoint, not committed after the log was
		// detached. A SIGKILL skips this path by definition — that is
		// what the WAL is for.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			log.Printf("iokserve: draining connections")
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil {
				log.Printf("iokserve: drain incomplete: %v", err)
			}
			log.Printf("iokserve: checkpointing %s", *dataDir)
			if err := checkpoint(); err != nil {
				log.Printf("iokserve: checkpoint failed: %v", err)
			}
			close(done)
		}()
	}

	log.Printf("iokserve: kernel %s, listening on %s", sh.Kernel().Name(), ln.Addr())
	if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}
