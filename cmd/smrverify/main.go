// Command smrverify audits journal directories offline: it checks every
// frame CRC, every seal's index and record count, the checkpoint's CRC,
// and the checkpoint⇄journal pairing (generation succession and the
// checkpoint CRC the journal header carries) — without replaying a
// single record. Point it at one volume's journal directory, or at a
// daemon's -journal-dir root to audit every volume under it.
//
// Examples:
//
//	smrverify /var/lib/smrd/journal          # audits every volume subdir
//	smrverify -strict /tmp/smrd/a            # torn tails also fail
//	smrverify -json /tmp/smrd/a | jq .
//
// Exit status: 0 when every directory verifies (torn tails and stale
// generations are crash residue, reported but clean), 1 on any
// corruption — damage inside a sealed region, a seal that disagrees
// with its records, or a checkpoint that does not pair with its journal
// — and on a directory in another format version. With -strict, torn
// tails fail too.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"smrseek/internal/journal"
	"smrseek/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smrverify:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smrverify", flag.ContinueOnError)
	var (
		strict   = fs.Bool("strict", false, "treat torn tails (crash residue) as failures too")
		jsonFlag = fs.Bool("json", false, "emit one JSON audit object per directory instead of tables")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: smrverify [-strict] [-json] DIR...")
	}

	var dirs []string
	for _, root := range fs.Args() {
		expanded, err := expand(root)
		if err != nil {
			return err
		}
		dirs = append(dirs, expanded...)
	}

	var failed bool
	enc := json.NewEncoder(out)
	for _, dir := range dirs {
		audit, err := journal.VerifyDir(dir)
		if *jsonFlag {
			type result struct {
				*journal.Audit
				Error string `json:"error,omitempty"`
			}
			r := result{Audit: audit}
			if err != nil {
				r.Error = err.Error()
			}
			if eerr := enc.Encode(r); eerr != nil {
				return eerr
			}
		} else if perr := printAudit(out, dir, audit, err); perr != nil {
			return perr
		}
		if err != nil || (*strict && audit != nil && audit.TailTorn) {
			failed = true
		}
	}
	if failed {
		return errors.New("verification failed")
	}
	return nil
}

// expand turns a root path into the journal directories beneath it: the
// root itself when it directly holds journal state, else every child
// directory that does (the smrd -journal-dir layout, one subdirectory
// per volume).
func expand(root string) ([]string, error) {
	if holdsJournal(root) {
		return []string{root}, nil
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if sub := filepath.Join(root, e.Name()); e.IsDir() && holdsJournal(sub) {
			dirs = append(dirs, sub)
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("%s holds no journal state (no %s or %s)",
			root, journal.JournalFile, journal.CheckpointFile)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func holdsJournal(dir string) bool {
	for _, name := range []string{journal.JournalFile, journal.CheckpointFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// printAudit renders one directory's verdict and per-segment table.
func printAudit(out io.Writer, dir string, a *journal.Audit, verr error) error {
	switch {
	case verr != nil:
		fmt.Fprintf(out, "%s: CORRUPT: %v\n", dir, verr)
		return nil
	case a.Stale:
		fmt.Fprintf(out, "%s: ok (stale journal generation %d subsumed by checkpoint generation %d)\n",
			dir, a.Generation, a.CheckpointGeneration)
		return nil
	case !a.HasJournal:
		fmt.Fprintf(out, "%s: ok (checkpoint only, generation %d)\n",
			dir, a.CheckpointGeneration)
		return nil
	}
	verdict := "ok"
	if a.TailTorn {
		verdict = "ok (torn tail: crash residue past the last seal)"
	}
	fmt.Fprintf(out, "%s: %s — generation %d, %d sealed segments (%d records), %d unsealed tail records\n",
		dir, verdict, a.Generation, len(a.Segments), a.SealedRecords, a.TailRecords)
	if len(a.Segments) == 0 {
		return nil
	}
	tbl := report.NewTable("sealed segments", "segment", "records", "offset")
	for _, s := range a.Segments {
		tbl.AddRow(fmt.Sprint(s.Index), fmt.Sprintf("%d..%d", s.First, s.First+int64(s.Count)-1),
			fmt.Sprint(s.Offset))
	}
	return tbl.Render(out)
}
