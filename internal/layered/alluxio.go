package layered

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrAlluxioFull is returned when a write exceeds the worker's configured
// memory: "Alluxio doesn't support writing more data than its configured
// memory size" (§9.2.1).
var ErrAlluxioFull = errors.New("layered: alluxio worker memory exhausted")

// Alluxio models an in-memory file system worker: a fixed memory budget
// holding serialized objects. Every write serializes (length-prefix +
// copy) into worker memory and every read deserializes (copy out) — the
// interfacing overhead of pushing data through a separate in-memory layer,
// which also double-caches anything the application keeps deserialized.
type Alluxio struct {
	capacity int64
	buf      []byte
	files    map[string][]alluxioRange
}

type alluxioRange struct{ off, n int64 }

// NewAlluxio builds a worker with the given memory size.
func NewAlluxio(memBytes int64) *Alluxio {
	return &Alluxio{capacity: memBytes, files: make(map[string][]alluxioRange)}
}

// Create starts a new file.
func (a *Alluxio) Create(name string) { a.files[name] = nil }

// WriteObject serializes one object into worker memory.
func (a *Alluxio) WriteObject(name string, obj []byte) error {
	need := int64(4 + len(obj))
	if int64(len(a.buf))+need > a.capacity {
		return fmt.Errorf("%w (writing %d into %d/%d)", ErrAlluxioFull, need, len(a.buf), a.capacity)
	}
	off := int64(len(a.buf))
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(obj)))
	a.buf = append(a.buf, hdr[:]...)
	a.buf = append(a.buf, obj...) // the serialization copy
	a.files[name] = append(a.files[name], alluxioRange{off, need})
	return nil
}

// Scan deserializes every object of a file to fn (copy out per object).
func (a *Alluxio) Scan(name string, fn func(obj []byte) error) error {
	for _, r := range a.files[name] {
		n := binary.LittleEndian.Uint32(a.buf[r.off : r.off+4])
		obj := make([]byte, n)
		copy(obj, a.buf[r.off+4:r.off+4+int64(n)]) // the deserialization copy
		if err := fn(obj); err != nil {
			return err
		}
	}
	return nil
}

// Used reports the worker memory in use.
func (a *Alluxio) Used() int64 { return int64(len(a.buf)) }
