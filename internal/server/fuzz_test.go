package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/traceio"
)

// FuzzShardHandler posts arbitrary bodies under arbitrary ?format=
// values through the full handler stack. Every answer must be one of
// the documented shard statuses, and whatever bundle the tenant serves
// afterwards must hash to its ETag and decode.
func FuzzShardHandler(f *testing.F) {
	recs := appRecords(f, "kafka", 0, 200)
	for _, format := range []string{"", "binary", "text", "protobuf"} {
		f.Add(encodeShard(f, recs, traceio.FormatBinary), format)
		f.Add(encodeShard(f, recs, traceio.FormatText), format)
	}
	f.Add([]byte{}, "")
	f.Add([]byte("# comment only\n"), "text")
	f.Add([]byte("WSPT\xff\xff\xff\xff"), "")
	f.Add(bytes.Repeat([]byte{0xff}, 5000), "binary")

	s, err := NewServer(Config{
		Dir:               f.TempDir(),
		DriftThreshold:    0.9,
		MinRetrainRecords: 100,
		MaxBodyBytes:      4096,
	})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, format string) {
		req := httptest.NewRequest(http.MethodPost,
			"/v1/tenants/fz/shards?format="+url.QueryEscape(format), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST answered %d: %s", rec.Code, rec.Body.Bytes())
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tenants/fz/bundle", nil))
		switch rec.Code {
		case http.StatusNotFound:
		case http.StatusOK:
			data := rec.Body.Bytes()
			if etag := rec.Header().Get("ETag"); etag != `"`+contentFingerprint(data)+`"` {
				t.Fatalf("bundle body does not hash to its ETag %s", etag)
			}
			if _, err := store.Decode(data); err != nil {
				t.Fatalf("served bundle does not decode: %v", err)
			}
		default:
			t.Fatalf("GET bundle answered %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}
