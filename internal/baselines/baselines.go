// Package baselines runs the paper's three comparison legalizers, the
// DAC'16, DAC'16-Imp and ASP-DAC'17 columns of Table 2, by name, so the
// CLI, the daemon and the experiments dispatch them the same way.
package baselines

import (
	"context"

	"mclg/internal/baselines/chow"
	"mclg/internal/baselines/wang"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/tetris"
)

// Methods lists the comparison legalizers' names in Table 2's column order.
var Methods = []string{"dac16", "dac16imp", "aspdac17"}

// Legalize runs the named comparison legalizer on d in place: "dac16" is
// chow's one-pass greedy, "dac16imp" the same with its refinement passes,
// and "aspdac17" wang's legalization followed by the Tetris allocation,
// which snaps its positions to sites. An unknown name is an
// ErrInvalidInput-matching error.
func Legalize(ctx context.Context, method string, d *design.Design) error {
	switch method {
	case "dac16":
		return chow.LegalizeContext(ctx, d)
	case "dac16imp":
		return chow.LegalizeImprovedContext(ctx, d, chow.Options{})
	case "aspdac17":
		if err := wang.LegalizeContext(ctx, d, wang.Options{}); err != nil {
			return err
		}
		_, err := tetris.AllocateContext(ctx, d)
		return err
	}
	return mclgerr.Invalidf("baselines: unknown method %q", method)
}
