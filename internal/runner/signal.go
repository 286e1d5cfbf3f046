package runner

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext derives a context that is cancelled by the first SIGINT
// or SIGTERM: a sweep stops dispatching (in-flight jobs finish, jobs not
// yet started report context.Canceled), a server drains, an explorer
// spools its frontier. After the first signal the handler is released,
// so a second one kills the process the default way — the standard
// escalation contract, and how a stuck drain is still killed by hand.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}
