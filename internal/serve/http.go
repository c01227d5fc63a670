package serve

import (
	"fmt"
	"net/http"
	"sort"

	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/trace"
	"cucc/internal/transport"
)

// JobsHandler returns the /jobs status page: queue depth, running count,
// and the most recent job rows (queued and running first, then finished,
// newest last), as a plain-text table.
func (s *Server) JobsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.mu.Lock()
		queued, running := s.queued, s.running
		rows := make([]*jobState, 0, len(s.jobStates))
		for _, st := range s.jobStates {
			rows = append(rows, st)
		}
		s.mu.Unlock()
		sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })

		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "queued %d  running %d\n\n", queued, running)
		fmt.Fprintf(w, "%6s  %-12s  %-20s  %-9s  %10s  %10s  %s\n",
			"job", "tenant", "what", "state", "queue_ms", "run_ms", "err")
		for _, st := range rows {
			fmt.Fprintf(w, "%6d  %-12s  %-20s  %-9s  %10.2f  %10.2f  %s\n",
				st.ID, st.Tenant, st.What, st.State, st.QueueMs, st.RunMs, st.Err)
		}
	})
}

// eventsPageWindow caps how many recent events /events renders.
const eventsPageWindow = 256

// EventsHandler returns the /events page: the most recent journal window
// as the deterministic text table (?format=json for the JSON export).
func (s *Server) EventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if s.journal == nil {
			http.Error(w, "event journal disabled (start the server with a journal)", http.StatusNotFound)
			return
		}
		evs := s.journal.Tail(eventsPageWindow)
		if req.URL.Query().Get("format") == "json" {
			data, err := trace.ExportJSON(evs)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(append(data, '\n'))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d events retained, %d dropped\n\n", s.journal.Len(), s.journal.Dropped())
		w.Write([]byte(trace.ExportText(evs)))
	})
}

// sloSeries are the /slo page's time-series columns over the sampler's
// delta ring.
var sloSeries = []obs.Series{
	{Label: "qps", Metric: MetricJobsCompleted, Kind: obs.SeriesRate},
	{Label: "bytes/s", Metric: transport.MetricSendBytes, Kind: obs.SeriesRate},
	{Label: "queue", Metric: MetricQueueDepth, Kind: obs.SeriesGauge},
	{Label: "restores/s", Metric: recovery.MetricRestores, Kind: obs.SeriesRate},
}

// SLOHandler returns the /slo page: every tenant's objective, rolling
// attainment, latency quantiles, and error-budget burn, computed from the
// aggregate registry's per-tenant counters and histograms — plus, when the
// sampler is running, the recent qps/bytes/queue-depth/restore-rate series.
// ?format=json returns the []obs.TenantSLO rows.
func (s *Server) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rows := obs.ComputeSLO(s.reg.Snapshot(), s.cfg.SLO)
		if req.URL.Query().Get("format") == "json" {
			data, err := obs.ExportSLOJSON(rows)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(append(data, '\n'))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(obs.SLOTable(rows)))
		if s.sampler != nil {
			fmt.Fprintf(w, "\nrecent windows (oldest first):\n")
			w.Write([]byte(s.sampler.Table(sloSeries)))
		}
	})
}

// HealthzHandler returns the /healthz readiness endpoint: 200 "ok" while
// serving, 503 "draining" once graceful drain has begun — the signal a
// load balancer needs to stop routing to an instance that received
// SIGTERM.
func (s *Server) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
}

// HTTPMux bundles the server's observability endpoints: the aggregate
// registry on /metrics (same renderer as metrics.Serve), the job table on
// /jobs, the event journal on /events, per-tenant SLO accounting on /slo,
// and readiness on /healthz.
func (s *Server) HTTPMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg)
	mux.Handle("/jobs", s.JobsHandler())
	mux.Handle("/events", s.EventsHandler())
	mux.Handle("/slo", s.SLOHandler())
	mux.Handle("/healthz", s.HealthzHandler())
	return mux
}
