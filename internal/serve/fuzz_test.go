package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/epvf"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
)

// FuzzAnalyzeRequest drives the analyze handler with arbitrary request
// bodies. It must answer with a 4xx, or with a 200 whose body decodes as
// an AnalyzeReply carrying a summary, and must never panic.
func FuzzAnalyzeRequest(f *testing.F) {
	s := startDaemon(f, f.TempDir())
	for _, src := range []string{
		`void main() { int x = 3; output(x * x); }`,
		`void main() { long *a = malloc(4 * 8); a[1] = 7; output(a[1]); free(a); }`,
		`void main() { int z = 0; output(5 / z); }`,
		`void main() { long *p = 0; output(p[3]); }`,
	} {
		m, err := lang.Compile("f", src)
		if err != nil {
			f.Fatal(err)
		}
		body, _ := json.Marshal(AnalyzeRequest{IR: ir.Print(m)})
		f.Add(body)
	}
	f.Add([]byte(`{"ir":""}`))
	f.Add([]byte(`{"ir":"define void @main() {\nentry:\n  ret void\n}\n"}`))
	f.Add([]byte(`{"ir":`))
	f.Add([]byte(`[1,2]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		// The daemon lets a golden run execute maxGoldenEvents
		// instructions; keep each exec cheap by skipping modules that
		// need more than 100k.
		var req AnalyzeRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			if m, err := ir.Parse(req.IR); err == nil && len(m.Funcs) > 0 {
				if _, err := epvf.Profile(m, interp.Config{MaxDynInstrs: 100_000}); errors.Is(err, epvf.ErrHang) {
					t.Skip("module runs past the fuzzing budget")
				}
			}
		}
		rw := httptest.NewRecorder()
		s.handleAnalyze(rw, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		switch {
		case rw.Code >= 400 && rw.Code < 500:
		case rw.Code == http.StatusOK:
			var reply AnalyzeReply
			if err := json.Unmarshal(rw.Body.Bytes(), &reply); err != nil || reply.Summary == nil {
				t.Fatalf("200 with a reply that does not decode (%v):\n%s", err, rw.Body)
			}
		default:
			t.Fatalf("status %d, want 4xx or 200\n%s", rw.Code, rw.Body)
		}
	})
}

// FuzzBlobPut drives the blob handler with arbitrary plan keys and
// payloads. A PUT must answer 204 or a 4xx and never panic; after a 204,
// a GET of the same key must return the payload.
func FuzzBlobPut(f *testing.F) {
	s := startDaemon(f, f.TempDir())
	f.Add(false, "abcd1234", []byte("payload"))
	f.Add(true, "abcd1234", []byte{})
	f.Add(false, "../escape", []byte("x"))
	f.Add(true, "", []byte("x"))
	f.Add(false, "UPPER", []byte("{\"kind\":\"header\"}\n"))
	f.Fuzz(func(t *testing.T, attrKind bool, plan string, data []byte) {
		kind := KindCampaign
		if attrKind {
			kind = KindAttr
		}
		h := s.blobHandler(kind)
		target := "/v1/blob?" + url.Values{"plan": {plan}}.Encode()
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPut, target, bytes.NewReader(data)))
		switch {
		case rw.Code >= 400 && rw.Code < 500:
			return
		case rw.Code != http.StatusNoContent:
			t.Fatalf("PUT %q: status %d, want 204 or 4xx\n%s", plan, rw.Code, rw.Body)
		}
		rw = httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, target, nil))
		if rw.Code != http.StatusOK || !bytes.Equal(rw.Body.Bytes(), data) {
			t.Fatalf("GET %q after PUT: status %d, %d bytes, want 200 and the %d bytes put", plan, rw.Code, rw.Body.Len(), len(data))
		}
	})
}
