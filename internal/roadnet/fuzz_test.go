package roadnet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadpart/internal/jsontest"
)

// seedFromTestdata adds every file matching glob under testdata/ to the
// fuzz corpus, so the curated valid and hostile inputs checked into the
// repo anchor each fuzzing run (and run as plain subtests under go test).
func seedFromTestdata(f *testing.F, glob string) {
	paths, err := filepath.Glob(filepath.Join("testdata", glob))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatalf("no testdata seeds match %q", glob)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
}

// FuzzReadJSON holds the network decoder to encoding/json with
// DisallowUnknownFields, the reader it replaced: both must accept and
// reject the same inputs and decode the same values, float bits
// included. The one allowed difference is an input the Cursor rejects
// for a repeated member name or trailing data. Every accepted network
// must also validate and survive a serialize/parse round trip — a
// service decoding untrusted bodies sits directly on this path.
func FuzzReadJSON(f *testing.F) {
	seedFromTestdata(f, "*.json")
	f.Add(`{}`)
	f.Add(`null`)
	f.Add(`[1,2,3]`)
	f.Add(`garbage`)
	f.Add(`{"Intersections":null,"Segments":null}`)
	f.Add(`{"Intersections":[],"Segments":[null]}`)
	f.Add(`{"Segments":[{"ID":0,"From":-1,"To":0,"Length":1,"Density":0}]}`)
	f.Add(`{"Intersections":[{"ID":0,"X":1e999,"Y":0}],"Segments":[]}`)
	f.Add(`{"intersections":[{"id":0,"x":-0,"Y":1e-400}],"\u017fegments":[{"ID":1.0}]}`)
	f.Add(`{"Segments":[{"ID":0,"ID":1}]}`)
	f.Add(`{"Segments":[],"segments":[]} `)
	f.Add(`{"Segments":[]}{"Segments":[]}`)
	f.Add(`{"Intersections":[{"ID":9223372036854775808,"X":0.1e1,"Y":-2E-3}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		var want, got Network
		dec := json.NewDecoder(strings.NewReader(src))
		dec.DisallowUnknownFields()
		refErr := dec.Decode(&want)
		c := NewCursor([]byte(src))
		c.Network(&got)
		err := c.End()
		strict := jsontest.StrictOnly([]byte(src))
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("accepted input encoding/json rejects (%v)", refErr)
		case err == nil && strict:
			t.Fatal("accepted a repeated member name or trailing data")
		case err == nil && !jsontest.Identical(got, want):
			t.Fatalf("decoded %+v, encoding/json decoded %+v", got, want)
		case err != nil && refErr == nil && !strict:
			t.Fatalf("rejected input encoding/json accepts: %v", err)
		}

		net, err := ReadJSON(strings.NewReader(src))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("accepted network fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := net.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted network fails to serialize: %v", err)
		}
		if _, err := ReadJSON(&buf); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
	})
}

// FuzzReadGeoJSON asserts the GeoJSON reader never panics and that every
// accepted network validates and survives a JSON round trip.
func FuzzReadGeoJSON(f *testing.F) {
	seedFromTestdata(f, "*.geojson")
	f.Add(`{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"LineString","coordinates":[[0,0],[10,0]]},"properties":{"density":0.5}}]}`)
	f.Add(`{"type":"FeatureCollection","features":[]}`)
	f.Add(`{"type":"Point"}`)
	f.Add(`garbage`)
	f.Add(`{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"LineString","coordinates":[[0,0],[0,0]]},"properties":{}}]}`)
	f.Add(`{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"LineString","coordinates":[[0,0],[0,0,0]]},"properties":{}}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		net, err := ReadGeoJSON(strings.NewReader(src), 1)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("accepted network fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := net.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted network fails to serialize: %v", err)
		}
	})
}

// FuzzReadDensitiesCSV asserts the CSV reader never panics and never
// leaves the network with invalid densities.
func FuzzReadDensitiesCSV(f *testing.F) {
	f.Add("segment_id,density\n0,1\n1,2\n2,3\n3,4\n")
	f.Add("0,0.5\n1,0.5\n2,0.5\n3,0.5\n")
	f.Add("bogus")
	f.Add("0,-1\n")
	f.Add("0,NaN\n1,Inf\n2,1\n3,1\n")
	f.Fuzz(func(t *testing.T, src string) {
		n := crossNet()
		if err := n.ReadDensitiesCSV(strings.NewReader(src)); err != nil {
			return
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("accepted CSV left invalid network: %v", err)
		}
	})
}
