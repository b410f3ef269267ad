package experiments

import (
	"errors"
	"fmt"
	"path/filepath"

	"lightpath/internal/engine"
	"lightpath/internal/snapshot"
)

// checkpointedTrials is the per-trial checkpoint fan-out the soak and
// controller campaigns share. It runs trials across CPUs through
// engine.Map; trial i checkpoints to <dir>/<name>-trial-<i>.ckpt
// (none when dir is empty) every `every` event boundaries. With
// kill > 0 every trial stops at that boundary after its final
// checkpoint, and once all of them have, the campaign returns an
// error wrapping snapshot.ErrStopped. run picks fresh start or resume.
func checkpointedTrials[T any](name string, trials int, dir string, every, kill uint64,
	run func(i int, opts snapshot.Options) (T, error)) ([]T, error) {
	out, err := engine.Map(trials, func(i int) (T, error) {
		opts := snapshot.Options{EveryEvents: every, StopAfterEvents: kill}
		if dir != "" {
			opts.Path = filepath.Join(dir, fmt.Sprintf("%s-trial-%d.ckpt", name, i))
		}
		v, err := run(i, opts)
		if err != nil && !(kill > 0 && errors.Is(err, snapshot.ErrStopped)) {
			return v, fmt.Errorf("experiments: %s trial %d: %w", name, i, err)
		}
		return v, nil
	})
	if err == nil && kill > 0 {
		err = fmt.Errorf("experiments: %s trials halted at event %d: %w", name, kill, snapshot.ErrStopped)
	}
	return out, err
}
