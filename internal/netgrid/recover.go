package netgrid

import (
	"fmt"
	"os"
	"path/filepath"

	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/persist"
)

// RecoverHost rebuilds a resource from its durable state directory
// (persist.Recover) and hosts it over TCP — the restart half of the
// crash-with-amnesia story on the deployment transport. The key
// material, snapshot and WAL tail all come from dir; cfg is the
// grid-wide configuration (distributed out of band). A fresh journal
// is attached and owned by the host (closed by Host.Close).
//
// The caller then dials the old neighbours (Connect/WaitFor, the same
// reconnect supervisors a live host uses) and calls RunRecovered —
// NOT Run, which would bootstrap a second share dealing.
func RecoverHost(dir string, cfg core.Config, popt persist.Options, opt Options) (*Host, *persist.RecoveryStats, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "key.bin"))
	if err != nil {
		return nil, nil, fmt.Errorf("netgrid: recovering %s: %w", dir, err)
	}
	scheme, err := persist.LoadScheme(blob)
	if err != nil {
		return nil, nil, err
	}
	adopter, ok := scheme.(homo.Adopter)
	if !ok {
		return nil, nil, fmt.Errorf("netgrid: scheme %T cannot adopt ciphertexts", scheme)
	}
	res, stats, err := persist.Recover(dir, persist.RecoverOptions{
		Cfg: cfg, Scheme: scheme, Obs: cfg.Obs, Logf: opt.Logf,
	})
	if err != nil {
		return nil, nil, err
	}
	popt.Keys = scheme
	popt.Obs = cfg.Obs
	j, err := persist.Open(dir, res.ID, popt)
	if err != nil {
		return nil, nil, err
	}
	res.SetJournal(j)
	h, err := NewHost(res.ID, res, adopter, opt)
	if err != nil {
		res.SetJournal(nil)
		j.Close()
		return nil, nil, err
	}
	h.onClose = func() {
		res.SetJournal(nil)
		j.Close()
	}
	return h, stats, nil
}
