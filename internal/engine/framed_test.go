package engine

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: the shared writer leaves either the old bytes or
// exactly the new ones, never temp-file litter, and never creates a
// missing directory.
func TestWriteFileAtomic(t *testing.T) {
	errFill := errors.New("fill failed")
	big := bytes.Repeat([]byte("x"), 10000)
	cases := []struct {
		name    string
		old     []byte // existing file content (nil: no file)
		sub     string // path below the test dir
		fill    []byte
		fillErr error
		wantErr bool
		want    []byte // file content afterwards (nil: no file)
	}{
		{name: "failing-fill-keeps-old", old: []byte("old\n"), sub: "f.json", fill: []byte("partial"), fillErr: errFill, wantErr: true, want: []byte("old\n")},
		{name: "failing-large-fill-keeps-old", old: []byte("old\n"), sub: "f.json", fill: big, fillErr: errFill, wantErr: true, want: []byte("old\n")},
		{name: "failing-fill-no-old", sub: "f.json", fill: []byte("partial"), fillErr: errFill, wantErr: true},
		{name: "replaces-old", old: []byte("old\n"), sub: "f.json", fill: []byte("new bytes\n"), want: []byte("new bytes\n")},
		{name: "creates-new", sub: "f.json", fill: big, want: big},
		{name: "empty-fill", old: []byte("old\n"), sub: "f.json", want: []byte{}},
		{name: "missing-directory", sub: filepath.Join("missing", "f.json"), fill: []byte("new\n"), wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, tc.sub)
			if tc.old != nil {
				if err := os.WriteFile(path, tc.old, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := WriteFileAtomic(path, func(w io.Writer) error {
				if _, err := w.Write(tc.fill); err != nil {
					return err
				}
				return tc.fillErr
			})
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if tc.fillErr != nil && !errors.Is(err, tc.fillErr) {
				t.Errorf("err = %v, want the fill's error", err)
			}
			got, rerr := os.ReadFile(path)
			switch {
			case tc.want == nil && !os.IsNotExist(rerr):
				t.Errorf("file exists after the write (read err %v)", rerr)
			case tc.want != nil && (rerr != nil || !bytes.Equal(got, tc.want)):
				t.Errorf("file = %.40q (err %v), want %.40q", got, rerr, tc.want)
			}
			// The directory holds the destination file or nothing: no temp
			// files, and a missing directory is never created.
			entries, _ := os.ReadDir(dir)
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			wantNames := 0
			if tc.want != nil {
				wantNames = 1
			}
			if len(names) != wantNames {
				t.Errorf("directory holds %v, want %d entries", names, wantNames)
			}
		})
	}
}
