//! Byte-identity pin of the textual IR frontend.
//!
//! Each input is loaded twice: by `parse_module_recovering`, hashing the
//! `{:?}` rendering of the module (arena slots and ids included) and every
//! skip record, and by the strict `parse_module`, hashing the `{:?}`
//! rendering of its module or its error's message and line. A rewrite of
//! the frontend that is meant to change only its cost must leave every
//! constant here as it is; a change that is meant to alter what loads
//! recaptures them from the `actual` values the failure message prints.

use ssa_ir::{parse_module, parse_module_recovering, print_module, Module};
use std::fmt::{self, Write};
use std::path::PathBuf;
use workloads::{mutate_text, PerfTier};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit, fed through `fmt::Write` so that large `{:?}`
/// renderings are hashed without being collected into a string.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Folds both loads of `text` into `hash`.
fn hash_load(hash: &mut Fnv, text: &str) {
    let recovered = parse_module_recovering(text);
    write!(hash, "{:?}", recovered.module).unwrap();
    for skip in &recovered.skipped {
        write!(hash, "{skip:?}").unwrap();
    }
    match parse_module(text) {
        Ok(module) => write!(hash, "ok {module:?}").unwrap(),
        Err(e) => write!(hash, "err {} {}", e.message, e.line).unwrap(),
    }
}

fn hash_texts<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = Fnv(FNV_OFFSET);
    for text in texts {
        hash_load(&mut hash, text);
    }
    hash.0
}

fn assert_pin(what: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{what}: frontend output changed (actual = {actual:#x}, expected = {expected:#x})"
    );
}

fn fixture(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Cleans every function like `gen-corpus --clean` and prints each module.
fn cleaned_texts(modules: Vec<Module>) -> Vec<String> {
    modules
        .into_iter()
        .map(|mut module| {
            for function in module.functions_mut() {
                ssa_passes::cleanup_function(function);
            }
            print_module(&module)
        })
        .collect()
}

/// 64 seeded corruptions, each of one module of the corpus in turn.
fn corruptions(texts: &[String]) -> Vec<String> {
    (0..64u64)
        .map(|seed| mutate_text(&texts[seed as usize % texts.len()], seed).0)
        .collect()
}

#[test]
fn committed_fixtures_load_as_pinned() {
    let texts: Vec<String> = [
        "recovery/clean_pair.ll",
        "recovery/garbage.ll",
        "recovery/mixed.ll",
        "recovery/truncated.ll",
        "lint/dangling_merged.ll",
        "lint/dominance.ll",
        "lint/odr_clash/first.ll",
        "lint/thunk_shape.ll",
        "lint/type_mismatch.ll",
    ]
    .into_iter()
    .map(fixture)
    .collect();
    let actual = hash_texts(texts.iter().map(String::as_str));
    assert_pin("fixtures", actual, 0xdc15_e8b2_3e41_165c);
}

#[test]
fn non_ascii_text_loads_as_pinned() {
    let texts = [
        // `é` is alphanumeric: it continues a name.
        "define i32 @caf\u{e9}(i32 %x\u{e9}) {\nentry:\n  ret i32 %x\u{e9}\n}\n",
        // U+00A0 is whitespace: it separates tokens.
        "define i32 @nbsp(i32 %x) {\nentry:\n  %r =\u{a0}add i32\u{a0}%x, 1\n  ret i32 %r\n}\n",
        // `٣` is numeric but not alphabetic: it continues a name but
        // cannot start one.
        "define i32 @d\u{663}(i32 %x) {\nentry:\n  %y\u{663} = add i32 %x, 1\n  ret i32 %y\u{663}\n}\n",
        "define i32 @lead(i32 %x) {\nentry:\n  ret i32 %x\n}\n\u{663}abc\n",
        "define i32 @inner(i32 %x) {\n\u{663}entry:\n  ret i32 %x\n}\n",
        // After a sigil any alphanumeric may start the name, `٣` included.
        "define i32 @sigil(i32 %\u{663}x) {\nentry:\n  ret i32 %\u{663}x\n}\n",
    ];
    let actual = hash_texts(texts);
    assert_pin("non-ASCII texts", actual, 0xab8f_b9d8_8272_9039);
}

#[test]
fn corrupted_perf_tier_s_loads_as_pinned() {
    let texts = corruptions(&cleaned_texts(PerfTier::S.spec().generate()));
    let actual = hash_texts(texts.iter().map(String::as_str));
    assert_pin("PerfTier::S corruptions", actual, 0x92ef_4b7b_6714_0ecb);
}

#[test]
fn corrupted_spec2006_quarter_scale_loads_as_pinned() {
    let modules = workloads::scale(workloads::spec2006(), 0.25)
        .iter()
        .map(|spec| spec.generate())
        .collect();
    let texts = corruptions(&cleaned_texts(modules));
    let actual = hash_texts(texts.iter().map(String::as_str));
    assert_pin("spec2006 x0.25 corruptions", actual, 0x5cfd_fec9_0d76_3879);
}
