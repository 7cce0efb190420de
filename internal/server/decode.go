package server

import (
	"fmt"
	"io"
	"net/http"

	"roadpart/internal/roadnet"
)

// This file is the service's one request reader: every POST route reads
// its body once into a single buffer, decodes it with roadnet.Cursor —
// strict, reflection-free, and value-for-value what encoding/json with
// DisallowUnknownFields produced — and keeps the bytes, so a keyed route
// can proxy exactly what the client sent to the owning shard.

// firstChunk bounds the body buffer sized up front from Content-Length:
// a larger claim is believed only as its bytes arrive, so a client that
// announces maxBodyBytes and sends ten bytes costs one small buffer.
const firstChunk = 1 << 20

// readRequest enforces POST, reads the bounded body and decodes it into
// doc, writing the 400 itself on failure. It returns the raw body for
// forwarding.
func readRequest(w http.ResponseWriter, r *http.Request, doc interface{}) ([]byte, bool) {
	if !allow(w, r, http.MethodPost) {
		return nil, false
	}
	raw, err := readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return nil, false
	}
	if err := decodeRequest(raw, doc); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return nil, false
	}
	return raw, true
}

// readBody reads r to its end into one buffer. claimed is the request's
// Content-Length (-1 when unknown). A claim that fits in firstChunk sizes
// the buffer exactly, with one spare byte so the read that meets the end
// needs no growth; a larger one starts at firstChunk. The buffer then
// doubles as bytes arrive, capped at the claim, or else at the body
// limit, plus that spare byte.
func readBody(r io.Reader, claimed int64) ([]byte, error) {
	size := int64(512)
	if claimed >= 0 {
		size = min(claimed+1, firstChunk)
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			next := min(int64(2*cap(buf)), maxBodyBytes+1) // r is limited to maxBodyBytes
			if claimed >= int64(len(buf)) {
				next = min(next, claimed+1)
			}
			buf = append(make([]byte, 0, next), buf...)
		}
	}
}

// decodeRequest decodes a whole request body into one of the service's
// request documents.
func decodeRequest(body []byte, doc interface{}) error {
	c := roadnet.NewCursor(body)
	switch d := doc.(type) {
	case *PartitionRequest:
		decodePartition(c, d)
	case *SweepRequest:
		decodeSweep(c, d)
	case *JobSubmitRequest:
		decodeJobSubmit(c, d)
	case *DensitiesRequest:
		decodeDensities(c, d)
	case *RenderRequest:
		decodeRender(c, d)
	default:
		return fmt.Errorf("unsupported request document %T", doc)
	}
	return c.End()
}

// Member names of each request document, in field order; the index in
// each list is the case in its decoder's switch.
var (
	partitionFields = []string{"network", "k", "scheme", "stability_eps", "refine", "seed", "workers", "multilevel", "timeout_ms"}
	sweepFields     = []string{"network", "k_min", "k_max", "scheme", "seed", "workers", "multilevel", "timeout_ms"}
	jobSubmitFields = []string{"op", "partition", "sweep"}
	densitiesFields = []string{"network", "scheme", "mode", "k", "seed", "densities", "updates", "timeout_ms"}
	renderFields    = []string{"network", "assign", "title"}
)

func decodePartition(c *roadnet.Cursor, p *PartitionRequest) {
	c.Object(partitionFields, func(i int) {
		switch i {
		case 0:
			roadnet.Pointer(c, &p.Network, (*roadnet.Cursor).Network)
		case 1:
			c.Int(&p.K)
		case 2:
			c.String(&p.Scheme)
		case 3:
			c.Float(&p.StabilityEps)
		case 4:
			c.Bool(&p.Refine)
		case 5:
			c.Uint64(&p.Seed)
		case 6:
			c.Int(&p.Workers)
		case 7:
			c.String(&p.Multilevel)
		case 8:
			c.Int64(&p.TimeoutMs)
		}
	})
}

func decodeSweep(c *roadnet.Cursor, s *SweepRequest) {
	c.Object(sweepFields, func(i int) {
		switch i {
		case 0:
			roadnet.Pointer(c, &s.Network, (*roadnet.Cursor).Network)
		case 1:
			c.Int(&s.KMin)
		case 2:
			c.Int(&s.KMax)
		case 3:
			c.String(&s.Scheme)
		case 4:
			c.Uint64(&s.Seed)
		case 5:
			c.Int(&s.Workers)
		case 6:
			c.String(&s.Multilevel)
		case 7:
			c.Int64(&s.TimeoutMs)
		}
	})
}

func decodeJobSubmit(c *roadnet.Cursor, j *JobSubmitRequest) {
	c.Object(jobSubmitFields, func(i int) {
		switch i {
		case 0:
			c.String(&j.Op)
		case 1:
			roadnet.Pointer(c, &j.Partition, decodePartition)
		case 2:
			roadnet.Pointer(c, &j.Sweep, decodeSweep)
		}
	})
}

func decodeDensities(c *roadnet.Cursor, d *DensitiesRequest) {
	c.Object(densitiesFields, func(i int) {
		switch i {
		case 0:
			roadnet.Pointer(c, &d.Network, (*roadnet.Cursor).Network)
		case 1:
			c.String(&d.Scheme)
		case 2:
			c.String(&d.Mode)
		case 3:
			c.Int(&d.K)
		case 4:
			c.Uint64(&d.Seed)
		case 5:
			roadnet.Slice(c, &d.Densities, (*roadnet.Cursor).Float)
		case 6:
			c.Delta(&d.Updates)
		case 7:
			c.Int64(&d.TimeoutMs)
		}
	})
}

func decodeRender(c *roadnet.Cursor, rr *RenderRequest) {
	c.Object(renderFields, func(i int) {
		switch i {
		case 0:
			roadnet.Pointer(c, &rr.Network, (*roadnet.Cursor).Network)
		case 1:
			roadnet.Slice(c, &rr.Assign, (*roadnet.Cursor).Int)
		case 2:
			c.String(&rr.Title)
		}
	})
}
