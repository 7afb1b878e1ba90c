package journal_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/stl"
)

// v02Journal returns a whole journal in the retired v02 format: its
// 60-byte header (a 32-byte seal-chain anchor in place of the
// checkpoint CRC) and one record frame.
func v02Journal(gen uint64) []byte {
	buf := make([]byte, 60)
	copy(buf, "SMRWAL02")
	binary.LittleEndian.PutUint64(buf[8:16], gen)
	binary.LittleEndian.PutUint32(buf[56:60], crc32.ChecksumIEEE(buf[8:56]))
	return append(buf, journal.MarshalRecord(journal.Record{Kind: journal.RecWrite, Lba: geom.Ext(0, 4)})...)
}

// v02Checkpoint returns an empty checkpoint in the retired v02 format,
// which carried a 32-byte chain head after the written counter: 72
// fixed bytes, no mappings, the trailing CRC.
func v02Checkpoint(gen uint64) []byte {
	buf := make([]byte, 76)
	copy(buf, "SMRCKP02")
	binary.LittleEndian.PutUint64(buf[8:16], gen)
	binary.LittleEndian.PutUint32(buf[72:76], crc32.ChecksumIEEE(buf[8:72]))
	return buf
}

// TestOldFormatRefused: a directory holding a v02 journal or a v02
// checkpoint is refused by every reader, and by the resume path
// (stl.OpenDir), with an error naming the version — including a whole
// v02 journal beside a v03 checkpoint, which must not be mistaken for a
// header torn mid-rebirth and dropped. No refusal touches the directory.
func TestOldFormatRefused(t *testing.T) {
	var ckpt bytes.Buffer
	if _, err := journal.WriteCheckpoint(&ckpt, journal.Snapshot{Generation: 1}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		jraw, craw []byte
		version    string
	}{
		{"v02 journal", v02Journal(1), nil, "SMRWAL02"},
		{"v02 checkpoint", nil, v02Checkpoint(1), "SMRCKP02"},
		{"v02 journal beside a v03 checkpoint", v02Journal(2), ckpt.Bytes(), "SMRWAL02"},
	}
	for _, c := range cases {
		dir := journal.WritePair(t, c.jraw, c.craw)
		before := journal.DirBytes(t, dir)
		_, _, lerr := journal.LoadDir(dir)
		_, verr := journal.VerifyDir(dir)
		_, _, _, oerr := stl.OpenDir(dir, 0)
		for reader, err := range map[string]error{"LoadDir": lerr, "VerifyDir": verr, "stl.OpenDir": oerr} {
			if err == nil || !strings.Contains(err.Error(), c.version) {
				t.Errorf("%s: %s = %v, want an error naming %s", c.name, reader, err, c.version)
			}
		}
		if after := journal.DirBytes(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: refusing the directory changed it", c.name)
		}
	}
}
