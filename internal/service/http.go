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
				"backlog_txns":   s.backlog(),
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

// retryAfter renders a shed's wait as a Retry-After value: whole
// seconds, rounded up, at least one.
func retryAfter(wait time.Duration) string {
	return strconv.Itoa(max(1, int(math.Ceil(wait.Seconds()))))
}

// backlogShedBody is the whole body of a backlog shed, encoded once:
// under a saturated front door it is nearly every reply.
var backlogShedBody = func() []byte {
	b, _ := json.Marshal(map[string]string{"error": errBacklog.Error()})
	return append(b, '\n')
}()

var jsonContentType = []string{"application/json"}

// shedBacklog answers a batch its tenant's full feed refuses: 429, a
// Retry-After of one step and a constant body, with nothing formatted
// or encoded per reply. The header value slices are shared; net/http
// only reads them.
func (s *Service) shedBacklog(w http.ResponseWriter) {
	s.cShedBacklog.Inc()
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Retry-After"] = s.backlogRetryAfter
	w.WriteHeader(http.StatusTooManyRequests)
	_, _ = w.Write(backlogShedBody)
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("tenant")
	if !tenantIDPattern.MatchString(id) {
		httpError(w, http.StatusBadRequest, "invalid tenant id")
		return
	}
	// A registered tenant whose feed cannot take one more transaction is
	// shed before its body is read, so the shed costs no JSON decode.
	// The peek registers no one: an unknown tenant is registered only
	// once its body decodes.
	t := s.known(id)
	if t != nil && s.feeds[t.resource].full() {
		s.shedBacklog(w)
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
	if t == nil {
		var err error
		if t, err = s.lookup(id); err != nil {
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	depth, wait, err := s.admit(t, txs)
	switch {
	case errors.Is(err, errBacklog):
		s.shedBacklog(w)
	case errors.Is(err, errCeiling):
		httpError(w, http.StatusInsufficientStorage, "%v", err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	case wait > 0:
		w.Header().Set("Retry-After", retryAfter(wait))
		httpError(w, http.StatusTooManyRequests, "shed: retry in %v", wait.Round(time.Millisecond))
	default:
		writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: len(txs), Queue: depth})
	}
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
