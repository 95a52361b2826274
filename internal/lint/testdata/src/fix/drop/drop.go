// Dropped-error fixtures for the errdrop rule: the errors of cliio
// calls must not be discarded, in any of the four ways a call can
// discard one.
package drop

import "fix/internal/cliio"

func dropsCliioClose(out *cliio.Output) {
	out.Close() // want `\[errdrop\] call discards the error from cliio\.Output\.Close`
}

func defersCliioClose(out *cliio.Output) {
	defer out.Close() // want `\[errdrop\] defer discards the error from cliio\.Output\.Close`
}

func goesCliioClose(out *cliio.Output) {
	go out.Close() // want `\[errdrop\] go statement discards the error from cliio\.Output\.Close`
}

func blanksCliioClose(out *cliio.Output) {
	_ = out.Close() // want `\[errdrop\] blank assignment discards the error from cliio\.Output\.Close`
}

func blanksCliioWrite(out *cliio.Output, p []byte) {
	n, _ := out.Write(p) // want `\[errdrop\] blank assignment discards the error from cliio\.Output\.Write`
	_ = n
}

func propagates(out *cliio.Output, p []byte) error {
	if _, err := out.Write(p); err != nil {
		return err
	}
	return out.Close()
}

// localErr returns an error no durability story rests on.
func localErr() error { return nil }

// unguardedDrop discards errors the rule does not guard: a local
// function's, not cliio's.
func unguardedDrop() {
	localErr()
	_ = localErr()
}

// writeOut is run of cmd/datagen/main.go with its checked close
// (defer cliio.CloseInto(w, &err)) written as a plain deferred Close.
func writeOut(w *cliio.Output, p []byte) error {
	defer w.Close() // want `\[errdrop\] defer discards the error from cliio\.Output\.Close`
	_, err := w.Write(p)
	return err
}
