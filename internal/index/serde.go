package index

import (
	"errors"
	"fmt"
	"io"
	"os"

	"serenade/internal/core"
)

// The on-disk format is "SRNIDX02" (see serde_v2.go): a section-table
// header over raw 8-byte-aligned little-endian arrays with per-section
// CRC-32s, laid out so LoadFile can mmap(2) the file and reinterpret the
// sections in place — daily index rollover is O(page-in) instead of
// O(decode+allocate). Transport compression belongs to the step that ships
// the file to the serving pods, not to the format.

// magicV1 is the header of the retired compressed-stream format. It is
// recognised only to refuse it with a message saying what to do.
var magicV1 = [8]byte{'S', 'R', 'N', 'I', 'D', 'X', '0', '1'}

// ErrCorrupt is returned when an index file fails checksum or structural
// validation.
var ErrCorrupt = errors.New("index: corrupt index file")

// errMagic reports a file that does not start with the v2 magic.
func errMagic(head [8]byte) error {
	if head == magicV1 {
		return fmt.Errorf("%w: format SRNIDX01 is no longer read; rebuild the index with serenade-indexer", ErrCorrupt)
	}
	return fmt.Errorf("%w: bad magic", ErrCorrupt)
}

// Load deserialises an index written by SaveV2 from a stream, validating
// checksums and structural invariants. The stream is read into one
// heap-resident arena; for file-backed zero-copy loading use LoadFile.
func Load(r io.Reader) (*core.Index, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if head != magicV2 {
		return nil, errMagic(head)
	}
	return loadV2Stream(r)
}

// SaveFile writes the index to path atomically (via a temporary file).
func SaveFile(path string, idx *core.Index) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if err = SaveV2(f, idx); err != nil {
		f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads an index written by SaveFile. On little-endian unix hosts
// the file is mmap(2)ed and reinterpreted in place — zero copies, O(1)
// allocations — and the returned index holds the mapping until Close;
// elsewhere the file is read into a heap-resident arena and Close is a
// no-op.
func LoadFile(path string) (*core.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // a successful mmap survives the descriptor's close

	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if head != magicV2 {
		return nil, errMagic(head)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()

	if mmapSupported && hostLittleEndian && size == int64(int(size)) {
		if data, merr := mmapFile(f, size); merr == nil {
			idx, perr := parseV2(data, core.Arena{
				Bytes:  size,
				Mapped: true,
				Close:  func() error { return munmapFile(data) },
			})
			if perr != nil {
				munmapFile(data)
				return nil, perr
			}
			return idx, nil
		}
		// mmap can fail on exotic filesystems; fall through to the copying
		// path rather than refusing to serve.
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return loadV2Into(f, size)
}
