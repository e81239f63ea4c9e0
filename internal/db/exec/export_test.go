package exec

// Checkpoints is how many tuples' worth of cancellation checkpoints the Ctx
// has passed while a cancel flag was armed: it moves at every TupleCost,
// Poll and stride of PollEvery, so a test can see where they fall in a
// statement's stream of simulator events.
func (c *Ctx) Checkpoints() uint64 { return c.tuples }
