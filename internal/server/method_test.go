package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMethodEnforcementAllRoutes audits every route: each supported
// method passes the gate, every other common method is answered 405
// with an Allow header naming the methods the route serves.
func TestMethodEnforcementAllRoutes(t *testing.T) {
	srv := newTestService(t, Config{})
	routes := []struct {
		path    string
		methods []string // the supported methods
		allow   string   // expected Allow header on a 405
	}{
		{"/v1/healthz", []string{http.MethodGet}, http.MethodGet},
		{"/v1/partition", []string{http.MethodPost}, http.MethodPost},
		{"/v1/sweep", []string{http.MethodPost}, http.MethodPost},
		{"/v1/jobs", []string{http.MethodPost}, http.MethodPost},
		{"/v1/jobs/j000001-0000000000000000", []string{http.MethodGet, http.MethodDelete}, "GET, DELETE"},
		{"/v1/jobs/j000001-0000000000000000/result", []string{http.MethodGet}, http.MethodGet},
		{"/v1/render", []string{http.MethodPost}, http.MethodPost},
		{"/v1/densities", []string{http.MethodPost}, http.MethodPost},
		{"/v1/watch", []string{http.MethodGet}, http.MethodGet},
		{"/v1/metrics", []string{http.MethodGet}, http.MethodGet},
		{"/v1/stats", []string{http.MethodGet}, http.MethodGet},
	}
	wrong := []string{
		http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete,
		http.MethodPatch, http.MethodHead, http.MethodOptions,
	}
	for _, route := range routes {
		supported := make(map[string]bool)
		for _, m := range route.methods {
			supported[m] = true
		}
		for _, method := range wrong {
			if supported[method] {
				continue
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, route.path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, route.path, rec.Code)
				continue
			}
			if got := rec.Header().Get("Allow"); got != route.allow {
				t.Errorf("%s %s: Allow = %q, want %q", method, route.path, got, route.allow)
			}
			if !strings.Contains(rec.Body.String(), "use "+route.methods[0]) {
				t.Errorf("%s %s: body %q does not name the allowed method", method, route.path, rec.Body.String())
			}
		}
	}
}

// TestSupportedMethodPassesGate spot-checks that the gate lets the
// supported method through: GET routes answer 200 outright, POST
// routes get past 405 to a body-validation 400 on an empty body, and
// the per-job routes reach their 404 for an unknown id.
func TestSupportedMethodPassesGate(t *testing.T) {
	srv := newTestService(t, Config{})
	for _, path := range []string{"/v1/healthz", "/v1/metrics", "/v1/stats"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
	for _, path := range []string{"/v1/partition", "/v1/sweep", "/v1/jobs", "/v1/render", "/v1/densities"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s (empty body) = %d, want 400", path, rec.Code)
		}
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/j000001-0000000000000000"},
		{http.MethodDelete, "/v1/jobs/j000001-0000000000000000"},
		{http.MethodGet, "/v1/jobs/j000001-0000000000000000/result"},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(probe.method, probe.path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s (unknown id) = %d, want 404", probe.method, probe.path, rec.Code)
		}
	}
}
