// This file exercises file-scope directives: placed above the package
// clause they suppress an analyzer for the whole file. hotpath rejects
// the file scope (its budget is audited per statement); other
// analyzers accept it when well-formed.

// want `cannot be file-scope`
//burlint:ignore hotpath the whole file is cold

//burlint:ignore closecheck fixture: closes in this file are audited by hand

// want `has no reason`
//burlint:ignore lockorder

package ignoredirective

import "os"

func fileScoped(f *os.File) {
	_ = f.Close()
}
