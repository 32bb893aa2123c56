//! Email addresses and reverse paths.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// A validated `local-part@domain` address, canonicalized to a lowercase
/// domain (the local part keeps its case per RFC 5321, but comparisons in
/// the greylist normalize it).
///
/// The canonical `local@domain` text is held once, behind an [`Arc`], so
/// a clone (into a command, an outcome, a server transaction or a mailbox
/// entry) is a refcount bump. Comparison, ordering and hashing still go
/// by `(local_part, domain)`, the pair the text is split into.
///
/// # Example
///
/// ```
/// use spamward_smtp::EmailAddress;
/// let a: EmailAddress = "Alice@Example.COM".parse()?;
/// assert_eq!(a.domain(), "example.com");
/// assert_eq!(a.local_part(), "Alice");
/// assert_eq!(a.to_string(), "Alice@example.com");
/// # Ok::<(), spamward_smtp::ParseAddressError>(())
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct EmailAddress {
    /// `local@domain`, the domain lowercased.
    text: Arc<str>,
    /// Byte offset of the `@` (neither part can contain one).
    at: usize,
}

/// Error parsing an [`EmailAddress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseAddressError {
    /// No `@` separator found.
    MissingAt,
    /// Local part empty or containing forbidden characters.
    BadLocalPart,
    /// Domain empty or containing forbidden characters.
    BadDomain,
}

impl fmt::Display for ParseAddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseAddressError::MissingAt => write!(f, "address has no '@'"),
            ParseAddressError::BadLocalPart => write!(f, "invalid local part"),
            ParseAddressError::BadDomain => write!(f, "invalid domain part"),
        }
    }
}

impl std::error::Error for ParseAddressError {}

impl EmailAddress {
    /// Parses an address, accepting an optional surrounding `<...>` pair.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAddressError`] for structurally invalid addresses.
    pub fn parse(s: &str) -> Result<Self, ParseAddressError> {
        let s = s.trim();
        let s = s.strip_prefix('<').and_then(|r| r.strip_suffix('>')).unwrap_or(s);
        let (local, domain) = s.rsplit_once('@').ok_or(ParseAddressError::MissingAt)?;
        if local.is_empty()
            || local.len() > 64
            || !local
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "!#$%&'*+-/=?^_`{|}~.".contains(c))
            || local.starts_with('.')
            || local.ends_with('.')
            || local.contains("..")
        {
            return Err(ParseAddressError::BadLocalPart);
        }
        if domain.is_empty()
            || domain.len() > 253
            || !domain.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.')
            || domain.starts_with('.')
            || domain.ends_with('.')
            || domain.contains("..")
        {
            return Err(ParseAddressError::BadDomain);
        }
        let text: Arc<str> = if domain.bytes().any(|b| b.is_ascii_uppercase()) {
            let mut text = String::with_capacity(s.len());
            text.push_str(local);
            text.push('@');
            text.push_str(&domain.to_ascii_lowercase());
            text.into()
        } else {
            // `s` is exactly `local@domain` here, already canonical.
            s.into()
        };
        Ok(EmailAddress { text, at: local.len() })
    }

    /// The part before the `@`, original case preserved.
    pub fn local_part(&self) -> &str {
        // `at` indexes an ASCII `@`, so both slices fall on char boundaries.
        &self.text[..self.at]
    }

    /// The lowercased domain after the `@`.
    pub fn domain(&self) -> &str {
        &self.text[self.at + 1..]
    }

    /// The fully-lowercased form used as a greylist key.
    pub fn normalized(&self) -> String {
        // The domain is lowercase already and `@` has no case.
        self.text.to_ascii_lowercase()
    }

    /// The address wrapped in angle brackets as it appears on the wire.
    pub fn to_path(&self) -> String {
        format!("<{self}>")
    }
}

impl FromStr for EmailAddress {
    type Err = ParseAddressError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EmailAddress::parse(s)
    }
}

impl fmt::Display for EmailAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for EmailAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmailAddress")
            .field("local", &self.local_part())
            .field("domain", &self.domain())
            .finish()
    }
}

impl PartialEq for EmailAddress {
    fn eq(&self, other: &Self) -> bool {
        // One `@` splits the text, so equal text is equal parts.
        self.text == other.text
    }
}

impl Eq for EmailAddress {}

impl Ord for EmailAddress {
    fn cmp(&self, other: &Self) -> Ordering {
        // By parts, not by text: `a@z` sorts before `a.b@c`.
        (self.local_part(), self.domain()).cmp(&(other.local_part(), other.domain()))
    }
}

impl PartialOrd for EmailAddress {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for EmailAddress {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.local_part().hash(state);
        self.domain().hash(state);
    }
}

/// The `MAIL FROM` argument: either the null path `<>` (bounces) or a real
/// address.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReversePath {
    /// The null reverse path `<>` used for delivery status notifications.
    Null,
    /// An ordinary sender address.
    Address(EmailAddress),
}

impl ReversePath {
    /// Parses a `MAIL FROM` argument.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAddressError`] when the argument is neither `<>` nor a
    /// valid address.
    pub fn parse(s: &str) -> Result<Self, ParseAddressError> {
        let t = s.trim();
        if t == "<>" {
            return Ok(ReversePath::Null);
        }
        EmailAddress::parse(t).map(ReversePath::Address)
    }

    /// The sender address, unless this is the null path.
    pub fn address(&self) -> Option<&EmailAddress> {
        match self {
            ReversePath::Null => None,
            ReversePath::Address(a) => Some(a),
        }
    }

    /// The lowercase string form used as a greylist key (`""` for null).
    pub fn normalized(&self) -> String {
        match self {
            ReversePath::Null => String::new(),
            ReversePath::Address(a) => a.normalized(),
        }
    }
}

impl fmt::Display for ReversePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReversePath::Null => write!(f, "<>"),
            ReversePath::Address(a) => write!(f, "<{a}>"),
        }
    }
}

impl From<EmailAddress> for ReversePath {
    fn from(a: EmailAddress) -> Self {
        ReversePath::Address(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_and_canonicalizes() {
        let a = EmailAddress::parse("Bob.Smith@MAIL.Example.Org").unwrap();
        assert_eq!(a.local_part(), "Bob.Smith");
        assert_eq!(a.domain(), "mail.example.org");
        assert_eq!(a.normalized(), "bob.smith@mail.example.org");
    }

    #[test]
    fn angle_brackets_accepted() {
        let a = EmailAddress::parse("<user@example.com>").unwrap();
        assert_eq!(a.to_string(), "user@example.com");
        assert_eq!(a.to_path(), "<user@example.com>");
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(EmailAddress::parse("nodomain"), Err(ParseAddressError::MissingAt));
        assert_eq!(EmailAddress::parse("@example.com"), Err(ParseAddressError::BadLocalPart));
        assert_eq!(EmailAddress::parse(".dot@example.com"), Err(ParseAddressError::BadLocalPart));
        assert_eq!(EmailAddress::parse("a..b@example.com"), Err(ParseAddressError::BadLocalPart));
        assert_eq!(EmailAddress::parse("user@"), Err(ParseAddressError::BadDomain));
        assert_eq!(EmailAddress::parse("user@ex ample.com"), Err(ParseAddressError::BadDomain));
        assert_eq!(EmailAddress::parse("user@.com"), Err(ParseAddressError::BadDomain));
        let long_local = "x".repeat(65);
        assert_eq!(
            EmailAddress::parse(&format!("{long_local}@example.com")),
            Err(ParseAddressError::BadLocalPart)
        );
    }

    #[test]
    fn plus_and_specials_in_local_part() {
        assert!(EmailAddress::parse("user+tag@example.com").is_ok());
        assert!(EmailAddress::parse("o'brien@example.com").is_ok());
    }

    #[test]
    fn reverse_path_null_and_address() {
        assert_eq!(ReversePath::parse("<>").unwrap(), ReversePath::Null);
        assert_eq!(ReversePath::Null.normalized(), "");
        assert_eq!(ReversePath::Null.to_string(), "<>");
        assert_eq!(ReversePath::Null.address(), None);
        let p = ReversePath::parse("<spam@bot.net>").unwrap();
        assert_eq!(p.normalized(), "spam@bot.net");
        assert_eq!(p.to_string(), "<spam@bot.net>");
        assert!(p.address().is_some());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(local in "[a-z][a-z0-9]{0,8}", domain in "[a-z]{1,8}\\.[a-z]{2,4}") {
            let s = format!("{local}@{domain}");
            let a = EmailAddress::parse(&s).unwrap();
            prop_assert_eq!(a.to_string(), s.clone());
            let b = EmailAddress::parse(&a.to_path()).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}
