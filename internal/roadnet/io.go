package roadnet

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// WriteJSON serializes the network as JSON to w.
func (n *Network) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(n)
}

// ReadJSON parses a network from JSON and validates it. Decoding is
// strict: an unknown or repeated member name, or anything but whitespace
// after the network, is an error (see Cursor).
func ReadJSON(r io.Reader) (*Network, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("roadnet: reading network: %w", err)
	}
	return parseJSON(data)
}

func parseJSON(data []byte) (*Network, error) {
	var n Network
	c := NewCursor(data)
	c.Network(&n)
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("roadnet: decoding network: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// SaveJSON writes the network to the named file.
func (n *Network) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := n.WriteJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadJSON reads a network from the named file.
func LoadJSON(path string) (*Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseJSON(data)
}

// WriteDensitiesCSV writes one "segment_id,density" row per segment,
// preceded by a header.
func (n *Network) WriteDensitiesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"segment_id", "density"}); err != nil {
		return err
	}
	for _, s := range n.Segments {
		rec := []string{strconv.Itoa(s.ID), strconv.FormatFloat(s.Density, 'g', -1, 64)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadDensitiesCSV parses "segment_id,density" rows (with optional header)
// and applies them to the network. Every segment must receive exactly one
// density.
func (n *Network) ReadDensitiesCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	records, err := cr.ReadAll()
	if err != nil {
		return fmt.Errorf("roadnet: reading density CSV: %w", err)
	}
	seen := make([]bool, len(n.Segments))
	count := 0
	for i, rec := range records {
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			if i == 0 {
				continue // header row
			}
			return fmt.Errorf("roadnet: density CSV row %d: bad id %q", i+1, rec[0])
		}
		d, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return fmt.Errorf("roadnet: density CSV row %d: bad density %q", i+1, rec[1])
		}
		if id < 0 || id >= len(n.Segments) {
			return fmt.Errorf("roadnet: density CSV row %d: segment %d outside network", i+1, id)
		}
		if seen[id] {
			return fmt.Errorf("roadnet: density CSV: duplicate segment %d", id)
		}
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("roadnet: density CSV: invalid density %v for segment %d", d, id)
		}
		seen[id] = true
		n.Segments[id].Density = d
		count++
	}
	if count != len(n.Segments) {
		return fmt.Errorf("roadnet: density CSV covers %d of %d segments", count, len(n.Segments))
	}
	return nil
}
