//! The source edits of the `edit_loop` workload and their known answers.
//!
//! Five are the Figure 7 kernel bugs of `tests/bug_injection.rs`, with
//! the same patches; the verifier must report each one's bug class on
//! the patched handler, and the counterexample must replay on a kernel
//! built from the patched image. Two of them (the bounds bugs) are
//! already flagged by the static analysis, which must report them too.
//! Five are refactors that keep a handler correct; after each, every
//! handler must still verify and the analysis must stay clean.

use hk_abi::Sysno;
use hk_kernel::image::SOURCES;

/// What the verifier must say about an edit's target handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Still verifies.
    Verified,
    /// A refinement bug (wrong result, state, or invariant).
    RefinementBug,
    /// Undefined behaviour.
    UbBug,
    /// Either bug class (the wrong-pointer bug in `dup` can surface as
    /// both, depending on which obligation the solver refutes first).
    AnyBug,
}

/// One source edit.
pub struct Edit {
    pub name: &'static str,
    pub file: &'static str,
    pub from: &'static str,
    pub to: &'static str,
    pub target: Sysno,
    pub expect: Expect,
    /// The static analysis flags the edited code before any query (an
    /// out-of-bounds index the UB lints see).
    pub lint: bool,
}

/// The ten edits, in a fixed order (the workload shuffles them).
pub const EDITS: [Edit; 10] = [
    Edit {
        name: "bug_dup_incorrect_pointer",
        file: "fd.hc",
        from: "    procs[current].ofile[newfd] = f;\n    procs[current].nr_fds = procs[current].nr_fds + 1;\n    files[f].refcnt = files[f].refcnt + 1;\n    return 0;\n}\n\n// dup2",
        to: "    procs[current].ofile[newfd] = f;\n    procs[current].nr_fds = procs[current].nr_fds + 1;\n    files[newfd].refcnt = files[newfd].refcnt + 1;\n    return 0;\n}\n\n// dup2",
        target: Sysno::Dup,
        expect: Expect::AnyBug,
        lint: false,
    },
    Edit {
        name: "bug_alloc_pdpt_bounds_check",
        file: "vm.hc",
        from: "    if (idx_valid(index) == 0) {\n        return -EINVAL;\n    }\n    if ((pages[parent][index] & PTE_P) != 0) {\n        return -EBUSY;\n    }\n    if (page_valid(child) == 0) {",
        to: "    if ((pages[parent][index] & PTE_P) != 0) {\n        return -EBUSY;\n    }\n    if (page_valid(child) == 0) {",
        target: Sysno::AllocPdpt,
        expect: Expect::UbBug,
        lint: true,
    },
    Edit {
        name: "bug_close_refcount_leak",
        file: "fd.hc",
        from: "    procs[current].ofile[fd] = NR_FILES;\n    procs[current].nr_fds = procs[current].nr_fds - 1;\n    file_unref(f);\n    return 0;",
        to: "    procs[current].ofile[fd] = NR_FILES;\n    procs[current].nr_fds = procs[current].nr_fds - 1;\n    return 0;",
        target: Sysno::Close,
        expect: Expect::RefinementBug,
        lint: false,
    },
    Edit {
        name: "bug_alloc_port_privilege",
        file: "iommu.hc",
        from: "    if (io_ports[port].owner != PID_NONE) {\n        return -EBUSY;\n    }\n",
        to: "",
        target: Sysno::AllocPort,
        expect: Expect::RefinementBug,
        lint: false,
    },
    Edit {
        name: "bug_pipe_read_overflow",
        file: "fd.hc",
        from: "    if ((offset < 0) | (offset > PAGE_WORDS - len)) {\n        return -EINVAL;\n    }\n    p = files[f].value;\n    if (len > pipes[p].count) {",
        to: "    p = files[f].value;\n    if (len > pipes[p].count) {",
        target: Sysno::PipeRead,
        expect: Expect::UbBug,
        lint: true,
    },
    // Reorder two independent guards that return the same errno.
    Edit {
        name: "refactor_dup_guard_order",
        file: "fd.hc",
        from: "    i64 f;\n    if (fd_valid(oldfd) == 0) {\n        return -EBADF;\n    }\n    f = procs[current].ofile[oldfd];\n    if (f == NR_FILES) {\n        return -EBADF;\n    }\n    if (fd_valid(newfd) == 0) {\n        return -EBADF;\n    }\n",
        to: "    i64 f;\n    if (fd_valid(newfd) == 0) {\n        return -EBADF;\n    }\n    if (fd_valid(oldfd) == 0) {\n        return -EBADF;\n    }\n    f = procs[current].ofile[oldfd];\n    if (f == NR_FILES) {\n        return -EBADF;\n    }\n",
        target: Sysno::Dup,
        expect: Expect::Verified,
        lint: false,
    },
    // Swap two stores to different cells.
    Edit {
        name: "refactor_alloc_vector_store_order",
        file: "intr.hc",
        from: "    vectors[v].owner = current;\n    procs[current].nr_vectors = procs[current].nr_vectors + 1;\n",
        to: "    procs[current].nr_vectors = procs[current].nr_vectors + 1;\n    vectors[v].owner = current;\n",
        target: Sysno::AllocVector,
        expect: Expect::Verified,
        lint: false,
    },
    Edit {
        name: "refactor_alloc_port_store_order",
        file: "iommu.hc",
        from: "    io_ports[port].owner = current;\n    procs[current].nr_ports = procs[current].nr_ports + 1;\n",
        to: "    procs[current].nr_ports = procs[current].nr_ports + 1;\n    io_ports[port].owner = current;\n",
        target: Sysno::AllocPort,
        expect: Expect::Verified,
        lint: false,
    },
    // Commute the operands of a range check.
    Edit {
        name: "refactor_ack_intr_range_check",
        file: "proc.hc",
        from: "    i64 mask;\n    if ((v < 0) | (v >= NR_VECTORS)) {",
        to: "    i64 mask;\n    if ((v >= NR_VECTORS) | (v < 0)) {",
        target: Sysno::AckIntr,
        expect: Expect::Verified,
        lint: false,
    },
    // Reorder the conjuncts of a guard.
    Edit {
        name: "refactor_yield_guard_conjuncts",
        file: "sched.hc",
        from: "    if ((cand >= 1) & (cand < NR_PROCS) & (cand != current)) {",
        to: "    if ((cand != current) & (cand >= 1) & (cand < NR_PROCS)) {",
        target: Sysno::Yield,
        expect: Expect::Verified,
        lint: false,
    },
];

/// The stock kernel sources with `edit` applied (`None` = stock).
///
/// # Panics
///
/// Panics if the edit's anchor is missing from its file.
pub fn sources(edit: Option<&Edit>) -> Vec<(&'static str, String)> {
    SOURCES
        .iter()
        .map(|&(file, src)| match edit {
            Some(e) if e.file == file => {
                assert!(src.contains(e.from), "{}: anchor missing in {file}", e.name);
                (file, src.replacen(e.from, e.to, 1))
            }
            _ => (file, src.to_string()),
        })
        .collect()
}
