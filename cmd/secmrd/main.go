// Command secmrd is the long-running multi-tenant mining service: a
// live secmr grid behind an HTTP/JSON API. Tenants stream transactions
// in (POST /v1/tenants/{id}/txns), the k-secure protocol mines
// continuously in the background, and published rule sets are durable
// in a WAL-backed store — query them (GET /v1/tenants/{id}/rules) with
// support/confidence filters and a change cursor, across restarts and
// kill -9.
//
// The same port serves the operational surface: /metrics (Prometheus),
// /healthz, /trace and pprof.
//
//	secmrd -addr :8080 -store.dir /var/lib/secmrd
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"secmr"
	"secmr/internal/obs"
	"secmr/internal/quest"
	"secmr/internal/service"
	"secmr/internal/store"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:8080", "listen address for the API + introspection mux")

		storeDir = flag.String("store.dir", "", "result-store directory (empty = in-memory, no durability)")

		algorithm = flag.String("algorithm", "secure", "mining algorithm: secure | k-private | majority-rule")
		crypto    = flag.String("crypto", "plain", "crypto backend for -algorithm secure: plain | paillier | shamir (shamir messages carry every share, so any broker or link observer can open them)")
		resources = flag.Int("resources", 8, "grid resources")
		k         = flag.Int("k", 4, "privacy parameter k")
		minFreq   = flag.Float64("minfreq", 0.3, "MinFreq threshold")
		minConf   = flag.Float64("minconf", 0.6, "MinConf threshold")
		growth    = flag.Int("growth", 200, "transactions absorbed per resource per mining step")
		seed      = flag.Int64("seed", 1, "deterministic seed (grid + bootstrap data)")

		seedPreset = flag.String("seed.preset", "T5I2", "Quest preset for the bootstrap database")
		seedTxns   = flag.Int("seed.txns", 1000, "bootstrap database size")
		seedItems  = flag.Int("seed.items", 0, "item-universe size for the bootstrap data (0 = preset default of 1000; smaller universes mean denser data and cheaper mining steps)")

		stepEvery    = flag.Duration("step-every", 25*time.Millisecond, "mining-loop cadence")
		publishEvery = flag.Int("publish-every", 20, "publish rule sets to the store every N steps")

		rate     = flag.Float64("tenant.rate", 5000, "per-tenant admission rate (txns/sec)")
		burst    = flag.Int("tenant.burst", 0, "per-tenant bucket depth (0 = 2×rate)")
		inflight = flag.Int64("inflight-bytes", 64<<20, "global budget for queued-but-unmined transaction bytes")
		tenants  = flag.Int("max-tenants", 1<<20, "tenant registration cap")
	)
	flag.Parse()
	if err := run(*addr, *storeDir, service.Config{
		Grid: secmr.GridConfig{
			Algorithm: secmr.Algorithm(*algorithm),
			Crypto:    secmr.Crypto(*crypto),
			Resources: *resources, K: *k,
			MinFreq: *minFreq, MinConf: *minConf,
			GrowthPerStep: *growth, Seed: *seed,
		},
		StepEvery:        *stepEvery,
		PublishEvery:     *publishEvery,
		TenantRate:       *rate,
		TenantBurst:      *burst,
		MaxInflightBytes: *inflight,
		MaxTenants:       *tenants,
	}, *seedPreset, *seedTxns, *seedItems); err != nil {
		fmt.Fprintln(os.Stderr, "secmrd:", err)
		os.Exit(1)
	}
}

func run(addr, storeDir string, cfg service.Config, seedPreset string, seedTxns, seedItems int) error {
	var st store.Store
	sink := secmr.NewTelemetry()
	cfg.Obs = sink
	if storeDir != "" {
		fs, err := store.Open(storeDir, store.Options{Obs: sink})
		if err != nil {
			return err
		}
		st = fs
	} else {
		st = store.NewMem()
	}
	cfg.Store = st

	params, err := quest.Preset(seedPreset, seedTxns, cfg.Grid.Seed+1)
	if err != nil {
		return err
	}
	if seedItems > 0 {
		params.NumItems = seedItems
	}
	cfg.Seed = secmr.GenerateQuestWith(params)

	svc, err := service.New(cfg)
	if err != nil {
		st.Close()
		return err
	}
	obs.RegisterProcessGauges(sink.Registry())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		svc.Close()
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	svc.Start()
	fmt.Printf("secmrd: serving on %s (store=%s algorithm=%s crypto=%s resources=%d)\n",
		ln.Addr(), storeDesc(storeDir), cfg.Grid.Algorithm, cfg.Grid.Crypto, cfg.Grid.Resources)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("secmrd: %v, shutting down\n", sig)
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			svc.Close()
			return err
		}
	}
	srv.Close()
	return svc.Close()
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}
