//! Checks that every relative Markdown link in the repo's documentation
//! resolves to a real file, so doc reorganizations cannot leave dangling
//! references. External (`http`/`https`) links and pure `#anchor` links
//! are out of scope; a `path#anchor` link is checked for the path part
//! only. Also checks that every `--bin`, `--bench`, `--test` and
//! `--example` a command in the docs passes names a build target that
//! exists, so a deleted binary or test cannot stay documented.

use std::fs;
use std::path::{Path, PathBuf};

/// Documents whose relative links must resolve. Paths are relative to
/// the workspace root (the umbrella crate's manifest directory).
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ARCHITECTURE.md",
    "docs/TCQL.md",
];

/// Extracts inline Markdown link targets `](target)` from one line.
/// Good enough for the repo's hand-written docs: targets never contain
/// parentheses or spaces.
fn link_targets(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = line[i + 2..].find(')') {
                out.push(line[i + 2..i + 2 + end].to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn relative_doc_links_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();

    for doc in DOCS {
        let path = root.join(doc);
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("listed doc {doc} must exist: {e}"));
        let base = path.parent().unwrap_or(Path::new("."));

        let mut in_code_fence = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_code_fence = !in_code_fence;
                continue;
            }
            if in_code_fence {
                continue;
            }
            for target in link_targets(line) {
                if target.starts_with("http://")
                    || target.starts_with("https://")
                    || target.starts_with('#')
                    || target.starts_with("mailto:")
                    || target.is_empty()
                {
                    continue;
                }
                let file_part = target.split('#').next().unwrap();
                if !base.join(file_part).exists() {
                    broken.push(format!("{doc}:{}: {target}", lineno + 1));
                }
            }
        }
    }

    assert!(
        broken.is_empty(),
        "broken relative doc links:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn doc_list_is_current() {
    // If someone adds a new top-level guide under docs/, it must join
    // the checked set above.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for entry in fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if name.ends_with(".md") {
            let rel = format!("docs/{name}");
            assert!(
                DOCS.contains(&rel.as_str()),
                "{rel} is not in the doc_links checked set — add it to DOCS"
            );
        }
    }
}

/// Documents whose commands must name existing build targets, besides
/// every `docs/*.md`. CHANGES.md and ROADMAP.md are left out: they record
/// history and plans, not commands to run.
const COMMAND_DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    ".claude/skills/verify/SKILL.md",
];

/// Names of the targets cargo discovers in `dir`: each `*.rs` file and
/// each subdirectory holding a `main.rs` (none if `dir` does not exist).
fn discovered(dir: &Path) -> Vec<String> {
    let mut names = Vec::new();
    for entry in fs::read_dir(dir).into_iter().flatten() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") || path.join("main.rs").exists() {
            names.push(path.file_stem().unwrap().to_str().unwrap().to_owned());
        }
    }
    names
}

/// Every target of the workspace root package and the packages under
/// `crates/` (no manifest declares one by hand), as `(flag, name)`.
fn build_targets(root: &Path) -> Vec<(&'static str, String)> {
    let mut packages = vec![root.to_path_buf()];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        packages.push(entry.unwrap().path());
    }
    let mut targets = Vec::new();
    for pkg in packages {
        for (flag, dir) in [
            ("--bin", "src/bin"),
            ("--test", "tests"),
            ("--bench", "benches"),
            ("--example", "examples"),
        ] {
            targets.extend(discovered(&pkg.join(dir)).into_iter().map(|n| (flag, n)));
        }
    }
    targets
}

#[test]
fn documented_build_targets_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let targets = build_targets(&root);
    let docs = COMMAND_DOCS
        .iter()
        .chain(DOCS.iter().filter(|d| d.starts_with("docs/")));
    let mut missing = Vec::new();

    for doc in docs {
        let text = fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("listed doc {doc} must exist: {e}"));
        // Tokens with their line numbers: a flag may end one line of
        // prose and its target begin the next.
        let tokens: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .flat_map(|(n, line)| line.split_whitespace().map(move |t| (n + 1, t)))
            .collect();
        for pair in tokens.windows(2) {
            let ((lineno, flag), (_, next)) = (pair[0], pair[1]);
            // `--test` closing a code span (`cargo bench -- --test`) is an
            // argument to a program, not a target selector.
            let flag = flag.trim_start_matches(['`', '(']);
            if !["--bin", "--bench", "--test", "--example"].contains(&flag) {
                continue;
            }
            let name: String = next
                .trim_start_matches('`')
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !targets.iter().any(|(f, n)| *f == flag && *n == name) {
                missing.push(format!("{doc}:{lineno}: {flag} {next}"));
            }
        }
    }

    assert!(
        missing.is_empty(),
        "documented build targets that do not exist:\n  {}",
        missing.join("\n  ")
    );
}
