//! Validated domain names with optional interning.
//!
//! [`DomainName`] stores its canonical text behind an [`Arc<str>`], so
//! cloning a name — which `dns` resolution and `net` host lookups do on
//! every hot path — bumps a reference count instead of copying a `String`.
//! Equality, ordering and hashing are pure functions of the canonical
//! text: two copies that share one text allocation (clones, or copies
//! interned in one [`NameTable`]) compare equal by one pointer compare,
//! and any other pair compares bytes. Because the text alone decides,
//! a `HashMap` or `BTreeMap` keyed by names can be searched with a plain
//! `&str` through `Borrow<str>`.
//!
//! A name can additionally be *interned* into a [`NameTable`], which keeps
//! one text allocation per distinct name and stamps each interned copy
//! with a `u32` [`NameId`] that [`NameTable::get`] resolves back to the
//! name. The id never takes part in a comparison: table tags are chosen
//! by the caller, so two tables may share one, and their ids then name
//! different texts.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// The longest name, in bytes, that [`DomainName::parse`] accepts.
const MAX_NAME_LEN: usize = 253;
/// The longest label, in bytes.
const MAX_LABEL_LEN: usize = 63;

/// The id a [`NameTable`] assigns to an interned [`DomainName`].
///
/// An id is a handle into the table that issued it, so it carries its
/// table's tag and [`NameTable::get`] answers only ids with its own tag.
/// Tags are caller-chosen and need not be unique, so ids never take part
/// in [`DomainName`] comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId {
    table: u32,
    index: u32,
}

impl NameId {
    /// The tag of the issuing [`NameTable`].
    #[must_use]
    pub fn table(self) -> u32 {
        self.table
    }

    /// The name's slot in the issuing table.
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }
}

/// A validated, canonical (lowercase, no trailing dot) domain name.
///
/// # Example
///
/// ```
/// use spamward_dns::DomainName;
/// let d: DomainName = "SMTP.Foo.NET.".parse()?;
/// assert_eq!(d.as_str(), "smtp.foo.net");
/// assert_eq!(d.prefixed("mx")?.as_str(), "mx.smtp.foo.net");
/// # Ok::<(), spamward_dns::ParseNameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DomainName {
    text: Arc<str>,
    id: Option<NameId>,
}

// Equality, ordering and hashing are all defined by the canonical text
// alone, which is what makes `Borrow<str>` sound. Copies sharing one text
// allocation take the pointer fast path.

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.text, &other.text) || self.text == other.text
    }
}

impl Eq for DomainName {}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.text, &other.text) {
            return Ordering::Equal;
        }
        self.text.cmp(&other.text)
    }
}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hashes exactly as the text does, as `Borrow<str>` requires.
        self.text.hash(state);
    }
}

impl Borrow<str> for DomainName {
    fn borrow(&self) -> &str {
        &self.text
    }
}

/// Error parsing a [`DomainName`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNameError {
    /// The name was empty (or only a trailing dot).
    Empty,
    /// The name exceeded 253 characters.
    TooLong,
    /// A label was empty, longer than 63 characters, or had a bad edge char.
    BadLabel(String),
    /// A character outside `[a-z0-9-]` appeared.
    BadChar(char),
}

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNameError::Empty => write!(f, "empty domain name"),
            ParseNameError::TooLong => write!(f, "domain name longer than 253 characters"),
            ParseNameError::BadLabel(l) => write!(f, "invalid label {l:?}"),
            ParseNameError::BadChar(c) => write!(f, "invalid character {c:?} in domain name"),
        }
    }
}

impl std::error::Error for ParseNameError {}

/// Checks the dot-separated labels of `text` left to right, judging each
/// as it reads once lowercased, and reports whether `text` holds an ASCII
/// uppercase letter (so that only then does the caller lowercase it).
fn check_labels(text: &str) -> Result<bool, ParseNameError> {
    let mut upper = false;
    for label in text.split('.') {
        if label.is_empty()
            || label.len() > MAX_LABEL_LEN
            || label.starts_with('-')
            || label.ends_with('-')
        {
            return Err(ParseNameError::BadLabel(label.to_ascii_lowercase()));
        }
        for c in label.chars() {
            match c {
                'a'..='z' | '0'..='9' | '-' | '_' => {}
                'A'..='Z' => upper = true,
                _ => return Err(ParseNameError::BadChar(c)),
            }
        }
    }
    Ok(upper)
}

impl DomainName {
    /// Parses and canonicalizes a name.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] when the name violates the LDH
    /// (letters-digits-hyphen) rule, has empty/oversized labels, or is
    /// empty/too long overall.
    pub fn parse(s: &str) -> Result<Self, ParseNameError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Err(ParseNameError::Empty);
        }
        if trimmed.len() > MAX_NAME_LEN {
            return Err(ParseNameError::TooLong);
        }
        let text = if check_labels(trimmed)? {
            Arc::from(trimmed.to_ascii_lowercase())
        } else {
            Arc::from(trimmed)
        };
        Ok(DomainName { text, id: None })
    }

    /// The canonical textual form.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The id assigned by a [`NameTable`], if this copy is interned.
    #[must_use]
    pub fn id(&self) -> Option<NameId> {
        self.id
    }

    /// Prefixes a label, e.g. `"smtp"` + `foo.net` → `smtp.foo.net`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] if the resulting name is invalid — the
    /// error [`DomainName::parse`] gives for `"{label}.{self}"`.
    pub fn prefixed(&self, label: &str) -> Result<DomainName, ParseNameError> {
        // `self` is canonical, so only the new label needs checking.
        let len = label.len() + 1 + self.text.len();
        if len > MAX_NAME_LEN {
            return Err(ParseNameError::TooLong);
        }
        let upper = check_labels(label)?;
        // Joined on the stack, so the name's one allocation is its `Arc`.
        let mut buf = [0; MAX_NAME_LEN];
        let (head, tail) = buf[..len].split_at_mut(label.len());
        head.copy_from_slice(label.as_bytes());
        if upper {
            head.make_ascii_lowercase();
        }
        tail[0] = b'.';
        tail[1..].copy_from_slice(self.text.as_bytes());
        // `check_labels` admits ASCII alone, so the joined bytes are UTF-8.
        let text = std::str::from_utf8(&buf[..len])
            .map_err(|_| ParseNameError::BadLabel(label.to_owned()))?;
        Ok(DomainName { text: Arc::from(text), id: None })
    }
}

impl FromStr for DomainName {
    type Err = ParseNameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

/// A `u32` symbol table for [`DomainName`]s.
///
/// Interning deduplicates the backing text (one `Arc<str>` per distinct
/// name, shared by every interned copy, so two interned copies of a name
/// compare equal by pointer) and stamps each name with a [`NameId`] that
/// [`NameTable::get`] resolves back to the name. Tables are identified by
/// a caller-chosen `tag`, which need not be unique: comparisons never
/// consult ids, so names from any mix of tables compare by their text.
///
/// # Example
///
/// ```
/// use spamward_dns::NameTable;
/// let mut names = NameTable::new(1);
/// let a = names.intern("foo.net")?;
/// let b = names.intern("FOO.net.")?;
/// assert_eq!(a.id(), b.id());
/// assert_eq!(names.len(), 1);
/// # Ok::<(), spamward_dns::ParseNameError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    tag: u32,
    names: Vec<Arc<str>>,
    index: BTreeMap<Arc<str>, u32>,
}

impl NameTable {
    /// An empty table identified by `tag`.
    #[must_use]
    pub fn new(tag: u32) -> Self {
        NameTable { tag, names: Vec::new(), index: BTreeMap::new() }
    }

    /// The table's tag.
    #[must_use]
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Parses `s` and interns it, returning the interned name.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] when `s` is not a valid domain name.
    pub fn intern(&mut self, s: &str) -> Result<DomainName, ParseNameError> {
        let name = DomainName::parse(s)?;
        Ok(self.intern_name(&name))
    }

    /// Interns an already-validated name, sharing its text allocation.
    ///
    /// # Panics
    ///
    /// Panics if the table exceeds `u32::MAX` entries.
    pub fn intern_name(&mut self, name: &DomainName) -> DomainName {
        if let Some(&index) = self.index.get(name.as_str()) {
            return DomainName {
                text: Arc::clone(&self.names[index as usize]),
                id: Some(NameId { table: self.tag, index }),
            };
        }
        let index = u32::try_from(self.names.len()).expect("name table holds at most 2^32 names");
        self.names.push(Arc::clone(&name.text));
        self.index.insert(Arc::clone(&name.text), index);
        DomainName { text: Arc::clone(&name.text), id: Some(NameId { table: self.tag, index }) }
    }

    /// Looks an interned name back up by id.
    ///
    /// Returns `None` for ids from other tables or out-of-range indices.
    #[must_use]
    pub fn get(&self, id: NameId) -> Option<DomainName> {
        if id.table != self.tag {
            return None;
        }
        self.names
            .get(id.index as usize)
            .map(|text| DomainName { text: Arc::clone(text), id: Some(id) })
    }

    /// The number of distinct names interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonicalizes_case_and_trailing_dot() {
        let d = DomainName::parse("MAIL.Example.COM.").unwrap();
        assert_eq!(d.as_str(), "mail.example.com");
        assert_eq!(d, DomainName::parse("mail.example.com").unwrap());
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(DomainName::parse(""), Err(ParseNameError::Empty));
        assert_eq!(DomainName::parse("."), Err(ParseNameError::Empty));
        assert!(matches!(DomainName::parse("a..b"), Err(ParseNameError::BadLabel(_))));
        assert!(matches!(DomainName::parse("-bad.com"), Err(ParseNameError::BadLabel(_))));
        assert!(matches!(DomainName::parse("bad-.com"), Err(ParseNameError::BadLabel(_))));
        assert!(matches!(DomainName::parse("sp ace.com"), Err(ParseNameError::BadChar(' '))));
        let long_label = "x".repeat(64);
        assert!(matches!(
            DomainName::parse(&format!("{long_label}.com")),
            Err(ParseNameError::BadLabel(_))
        ));
        let long_name = format!("{}.com", "abcde.".repeat(50));
        assert_eq!(DomainName::parse(&long_name), Err(ParseNameError::TooLong));
    }

    #[test]
    fn prefixed_builds_child() {
        let base = DomainName::parse("foo.net").unwrap();
        assert_eq!(base.prefixed("smtp").unwrap().as_str(), "smtp.foo.net");
        assert!(base.prefixed("bad label").is_err());
    }

    #[test]
    fn clone_shares_the_text_allocation() {
        let a = DomainName::parse("mail.foo.net").unwrap();
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "clone must not copy the text");
    }

    #[test]
    fn interning_dedupes_and_assigns_stable_ids() {
        let mut table = NameTable::new(9);
        let a = table.intern("foo.net").unwrap();
        let b = table.intern("bar.net").unwrap();
        let a2 = table.intern("FOO.net.").unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(a.id(), a2.id());
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id().unwrap().table(), 9);
        assert_eq!(a, a2);
        assert!(std::ptr::eq(a.as_str(), a2.as_str()), "interned copies share one text");
        assert_eq!(table.get(a.id().unwrap()).unwrap(), a);
    }

    #[test]
    fn interned_and_uninterned_copies_agree_on_all_traits() {
        use std::collections::hash_map::DefaultHasher;
        let mut table = NameTable::new(1);
        let plain = DomainName::parse("smtp.foo.net").unwrap();
        let interned = table.intern_name(&plain);
        assert_eq!(plain, interned);
        assert_eq!(plain.cmp(&interned), Ordering::Equal);
        let hash = |d: &DomainName| {
            let mut h = DefaultHasher::new();
            d.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&plain), hash(&interned));
    }

    #[test]
    fn ids_from_different_tables_never_alias() {
        let mut t1 = NameTable::new(1);
        let mut t2 = NameTable::new(2);
        let a = t1.intern("foo.net").unwrap();
        let b = t2.intern("bar.net").unwrap();
        // Same index, different tables: must compare by text, not by id.
        assert_eq!(a.id().unwrap().index(), b.id().unwrap().index());
        assert_ne!(a, b);
        assert!(t1.get(b.id().unwrap()).is_none());
    }

    #[test]
    fn tables_sharing_a_tag_compare_names_by_text() {
        use std::collections::BTreeSet;
        // Two tables with one tag issue the same ids for different names.
        let a = NameTable::new(3).intern("a.net").unwrap();
        let b = NameTable::new(3).intern("b.net").unwrap();
        assert_eq!(a.id(), b.id());
        assert_ne!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(BTreeSet::from([a.clone(), b]).len(), 2);
        // ...and different ids for one name.
        let mut other = NameTable::new(3);
        other.intern("z.net").unwrap();
        let a2 = other.intern("a.net").unwrap();
        assert_ne!(a.id(), a2.id());
        assert_eq!(a, a2);
        assert_eq!(a.cmp(&a2), Ordering::Equal);
    }

    #[test]
    fn maps_keyed_by_names_answer_str_lookups() {
        use std::collections::HashMap;
        let mut table = NameTable::new(0);
        let mut map = HashMap::new();
        map.insert(table.intern("foo.net").unwrap(), 1);
        map.insert(DomainName::parse("bar.net").unwrap(), 2);
        assert_eq!(map.get("foo.net"), Some(&1));
        assert_eq!(map.get("bar.net"), Some(&2));
        assert_eq!(map.get("FOO.net"), None, "lookups take canonical text");
    }

    /// A reference parser in two plain passes (lowercase a copy, then
    /// check it label by label): the oracle `parse` and `prefixed` are
    /// pinned to, errors and their payloads included.
    fn oracle_parse(s: &str) -> Result<String, ParseNameError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Err(ParseNameError::Empty);
        }
        if trimmed.len() > 253 {
            return Err(ParseNameError::TooLong);
        }
        let lower = trimmed.to_ascii_lowercase();
        for label in lower.split('.') {
            if label.is_empty() || label.len() > 63 {
                return Err(ParseNameError::BadLabel(label.to_owned()));
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(ParseNameError::BadLabel(label.to_owned()));
            }
            for c in label.chars() {
                if !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_') {
                    return Err(ParseNameError::BadChar(c));
                }
            }
        }
        Ok(lower)
    }

    fn parsed(s: &str) -> Result<String, ParseNameError> {
        DomainName::parse(s).map(|d| d.as_str().to_owned())
    }

    fn prefixed_text(base: &DomainName, label: &str) -> Result<String, ParseNameError> {
        base.prefixed(label).map(|d| d.as_str().to_owned())
    }

    /// An `n`-byte label of mixed-case letters, digits and `_`.
    fn sized_label(n: usize) -> String {
        "aB3_".chars().cycle().take(n).collect()
    }

    #[test]
    fn parse_and_prefixed_agree_with_the_oracle_at_the_limits() {
        let base = DomainName::parse("foo.net").unwrap();
        for n in [0, 1, 62, 63, 64, 65] {
            let label = sized_label(n);
            assert_eq!(parsed(&label), oracle_parse(&label), "{n}-byte label");
            let name = format!("{label}.example.");
            assert_eq!(parsed(&name), oracle_parse(&name), "{n}-byte first label");
            assert_eq!(
                prefixed_text(&base, &label),
                oracle_parse(&format!("{label}.foo.net")),
                "{n}-byte prefix"
            );
        }
        // Names of 252..=255 bytes, with and without a trailing dot.
        for n in 252..=255 {
            let name = format!("{}.{}", vec![sized_label(63); 3].join("."), sized_label(n - 192));
            assert_eq!(name.len(), n);
            for s in [name.clone(), format!("{name}.")] {
                assert_eq!(parsed(&s), oracle_parse(&s), "{n}-byte name");
            }
        }
        // Prefixes that make the joined name 252..=255 bytes.
        let long = DomainName::parse(&vec![sized_label(63); 3].join(".")).unwrap();
        for n in 60..=63 {
            let label = sized_label(n);
            assert_eq!(
                prefixed_text(&long, &label),
                oracle_parse(&format!("{label}.{long}")),
                "{n}-byte prefix of a 191-byte name"
            );
        }
        assert_eq!(prefixed_text(&long, "-"), Err(ParseNameError::BadLabel("-".into())));
        assert_eq!(prefixed_text(&long, &"-".repeat(62)), Err(ParseNameError::TooLong));
    }

    #[test]
    fn interned_ordering_matches_text_ordering() {
        let mut table = NameTable::new(3);
        // Intern in an order that disagrees with lexicographic order.
        let z = table.intern("zeta.net").unwrap();
        let a = table.intern("alpha.net").unwrap();
        let m = table.intern("mid.net").unwrap();
        let mut v = vec![z.clone(), a.clone(), m.clone()];
        v.sort();
        assert_eq!(v, vec![a, m, z], "sort order is the text order, never the id order");
    }

    /// Labels with every edge the parser judges: mixed case, digits, `_`,
    /// hyphens at either end, spaces, non-ASCII letters, and empty labels
    /// (from doubled or trailing dots).
    const EDGY_NAME: &str = "[a-zA-Z0-9_é -]{0,6}(\\.[a-zA-Z0-9_ü-]{0,6}){0,4}\\.?";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_parse_matches_the_oracle(s in EDGY_NAME) {
            prop_assert_eq!(parsed(&s), oracle_parse(&s));
        }

        #[test]
        fn prop_parse_matches_the_oracle_near_the_length_limits(
            (head, tail, label, dot) in (58usize..=68, 52usize..=68, EDGY_NAME, any::<bool>())
        ) {
            // Labels around 63 bytes in names around 253 bytes.
            let (head, tail) = (sized_label(head), sized_label(tail));
            let middle = vec![sized_label(63); 2].join(".");
            let s = format!("{head}.{middle}.{tail}{label}{}", if dot { "." } else { "" });
            prop_assert_eq!(parsed(&s), oracle_parse(&s));
        }

        #[test]
        fn prop_prefixed_matches_the_oracle(
            (base, label, pad) in ("[a-zA-Z0-9]{1,6}(\\.[a-zA-Z0-9]{1,6}){0,3}", EDGY_NAME, 0usize..=250)
        ) {
            // A valid base of any length up to the limit.
            let base = format!("{}{base}", "x.".repeat(pad / 2));
            if let Ok(base) = DomainName::parse(&base) {
                let joined = format!("{label}.{base}");
                prop_assert_eq!(prefixed_text(&base, &label), oracle_parse(&joined));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_parse_is_idempotent(s in "[a-z0-9]{1,10}(\\.[a-z0-9]{1,10}){0,3}") {
            let once = DomainName::parse(&s).unwrap();
            let twice = DomainName::parse(once.as_str()).unwrap();
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn prop_case_insensitive(s in "[a-zA-Z]{1,12}\\.[a-zA-Z]{2,6}") {
            let lower = DomainName::parse(&s.to_ascii_lowercase()).unwrap();
            let mixed = DomainName::parse(&s).unwrap();
            prop_assert_eq!(lower, mixed);
        }

        #[test]
        fn prop_interning_preserves_comparisons(
            names in proptest::collection::vec("[a-z0-9]{1,8}\\.[a-z]{2,4}", 2..12)
        ) {
            let mut table = NameTable::new(7);
            let plain: Vec<DomainName> =
                names.iter().map(|s| DomainName::parse(s).unwrap()).collect();
            let interned: Vec<DomainName> =
                plain.iter().map(|d| table.intern_name(d)).collect();
            for (i, a) in plain.iter().enumerate() {
                for (j, b) in plain.iter().enumerate() {
                    prop_assert_eq!(a.cmp(b), interned[i].cmp(&interned[j]));
                    prop_assert_eq!(a == b, interned[i] == interned[j]);
                    prop_assert_eq!(a.cmp(b), a.cmp(&interned[j]));
                }
            }
        }
    }
}
