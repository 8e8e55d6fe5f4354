package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"time"

	"secmr/internal/arm"
	"secmr/internal/obs"
	"secmr/internal/store"
)

// maxIngestBody bounds one ingest request (decoded batches are further
// bounded by admission control).
const maxIngestBody = 8 << 20

// tenantIDPattern keeps tenant ids path- and label-safe.
var tenantIDPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// ingestRequest is the POST /v1/tenants/{tenant}/txns body.
type ingestRequest struct {
	// Txns is the transaction batch, each an item-id list.
	Txns [][]int `json:"txns"`
}

// ingestResponse acknowledges an admitted batch.
type ingestResponse struct {
	Accepted int `json:"accepted"`
	// Queue is the tenant resource's feed depth after the push — a
	// backpressure hint clients can pace on before hitting 429s.
	Queue int `json:"queue"`
}

// rulesResponse answers GET /v1/tenants/{tenant}/rules.
type rulesResponse struct {
	Tenant string `json:"tenant"`
	store.Result
}

// tenantInfo is one row of GET /v1/tenants.
type tenantInfo struct {
	ID       string `json:"id"`
	Resource int    `json:"resource"`
	Ingested int64  `json:"ingested_txns"`
	Queue    int    `json:"queue"`
}

// Handler returns the service's full HTTP surface: the obs
// introspection endpoints (/metrics, /healthz, /trace, pprof) and the
// /v1 tenant API on one mux, as a single port to probe, scrape and
// serve.
func (s *Service) Handler() http.Handler {
	mux := obs.NewMux(obs.ServerOpts{
		Registry: s.cfg.Obs.Registry(),
		Tracer:   s.cfg.Obs.Tracer(),
		Health: func() map[string]any {
			s.mu.Lock()
			tenants := len(s.tenants)
			s.mu.Unlock()
			return map[string]any{
				"status":         "ok",
				"step":           s.steps.Load(),
				"epoch":          s.epoch.Load(),
				"tenants":        tenants,
				"inflight_bytes": s.inflight.Load(),
			}
		},
	})
	mux.HandleFunc("POST /v1/tenants/{tenant}/txns", s.handleIngest)
	mux.HandleFunc("GET /v1/tenants/{tenant}/rules", s.handleRules)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("tenant")
	if !tenantIDPattern.MatchString(id) {
		httpError(w, http.StatusBadRequest, "invalid tenant id")
		return
	}
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if len(req.Txns) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	txs := make([]arm.Transaction, 0, len(req.Txns))
	for _, items := range req.Txns {
		if len(items) == 0 {
			continue
		}
		tx := make(arm.Itemset, 0, len(items))
		for _, it := range items {
			if it < 0 {
				httpError(w, http.StatusBadRequest, "item ids must be non-negative, got %d", it)
				return
			}
			tx = append(tx, arm.Item(it))
		}
		txs = append(txs, arm.Transaction(arm.NewItemset(tx...)))
	}
	if len(txs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	t, err := s.lookup(id)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if wait, err := s.admit(t, txs); errors.Is(err, errCeiling) {
		httpError(w, http.StatusInsufficientStorage, "%v", err)
		return
	} else if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	} else if wait > 0 {
		secs := int(math.Ceil(wait.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests, "shed: retry in %v", wait.Round(time.Millisecond))
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{
		Accepted: len(txs),
		Queue:    s.feeds[t.resource].depth(),
	})
}

func (s *Service) handleRules(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("tenant")
	if !tenantIDPattern.MatchString(id) {
		httpError(w, http.StatusBadRequest, "invalid tenant id")
		return
	}
	var q store.Query
	var err error
	qp := r.URL.Query()
	if v := qp.Get("min_support"); v != "" {
		if q.MinSupport, err = strconv.ParseFloat(v, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad min_support: %v", err)
			return
		}
	}
	if v := qp.Get("min_confidence"); v != "" {
		if q.MinConfidence, err = strconv.ParseFloat(v, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad min_confidence: %v", err)
			return
		}
	}
	if v := qp.Get("since"); v != "" {
		if q.Since, err = strconv.ParseInt(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad since: %v", err)
			return
		}
	}
	if v := qp.Get("limit"); v != "" {
		if q.Limit, err = strconv.Atoi(v); err != nil {
			httpError(w, http.StatusBadRequest, "bad limit: %v", err)
			return
		}
	}
	res, err := s.st.Query(id, q)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rulesResponse{Tenant: id, Result: res})
}

func (s *Service) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]tenantInfo, 0, len(s.order))
	for _, id := range s.order {
		t := s.tenants[id]
		out = append(out, tenantInfo{ID: id, Resource: t.resource,
			Ingested: t.ingested.Load(), Queue: s.feeds[t.resource].depth()})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}
