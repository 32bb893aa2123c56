//! The SMTP envelope: what the transaction (not the message body) says.

use crate::address::{EmailAddress, ReversePath};
use std::fmt;
use std::net::Ipv4Addr;

/// The envelope of one mail transaction.
///
/// Greylisting keys on exactly three of these fields — the client IP, the
/// envelope sender and the envelope recipient — which is why the paper
/// stresses that "the message itself is irrelevant".
///
/// # Example
///
/// ```
/// use std::net::Ipv4Addr;
/// use spamward_smtp::Envelope;
///
/// let env = Envelope::builder()
///     .client_ip(Ipv4Addr::new(203, 0, 113, 9))
///     .helo("bot.local")
///     .mail_from("spam@botnet.example".parse::<spamward_smtp::EmailAddress>()?)
///     .rcpt("victim@foo.net".parse()?)
///     .build();
/// assert_eq!(env.recipients().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    client_ip: Ipv4Addr,
    helo: String,
    mail_from: ReversePath,
    recipients: Vec<EmailAddress>,
}

impl Envelope {
    /// Starts building an envelope.
    pub fn builder() -> EnvelopeBuilder {
        EnvelopeBuilder::default()
    }

    /// The connecting client's IP address.
    pub fn client_ip(&self) -> Ipv4Addr {
        self.client_ip
    }

    /// The HELO/EHLO argument the client presented.
    pub fn helo(&self) -> &str {
        &self.helo
    }

    /// The envelope sender.
    pub fn mail_from(&self) -> &ReversePath {
        &self.mail_from
    }

    /// The envelope recipients, in RCPT order.
    pub fn recipients(&self) -> &[EmailAddress] {
        &self.recipients
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} -> {}",
            self.client_ip,
            self.mail_from,
            self.recipients.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(", ")
        )
    }
}

/// Builder for [`Envelope`].
#[derive(Debug, Default)]
pub struct EnvelopeBuilder {
    client_ip: Option<Ipv4Addr>,
    helo: String,
    mail_from: Option<ReversePath>,
    recipients: Vec<EmailAddress>,
}

impl EnvelopeBuilder {
    /// Sets the client IP (required).
    pub fn client_ip(mut self, ip: Ipv4Addr) -> Self {
        self.client_ip = Some(ip);
        self
    }

    /// Sets the HELO argument (defaults to empty).
    ///
    /// The envelope owns a copy rather than sharing the greeting's text:
    /// a stored envelope outlives its sender, and a shared name would keep
    /// a reference-counted block alive per mailbox entry.
    pub fn helo(mut self, helo: &str) -> Self {
        self.helo = helo.to_owned();
        self
    }

    /// Sets the envelope sender (required; accepts `EmailAddress` via
    /// `Into`).
    pub fn mail_from(mut self, path: impl Into<ReversePath>) -> Self {
        self.mail_from = Some(path.into());
        self
    }

    /// Appends a recipient (at least one required).
    pub fn rcpt(mut self, address: EmailAddress) -> Self {
        self.recipients.push(address);
        self
    }

    /// Appends several recipients. The first call collects them, so a
    /// `Vec` handed over keeps its buffer.
    pub fn rcpts(mut self, addresses: impl IntoIterator<Item = EmailAddress>) -> Self {
        if self.recipients.is_empty() {
            self.recipients = addresses.into_iter().collect();
        } else {
            self.recipients.extend(addresses);
        }
        self
    }

    /// Finishes the envelope, reporting what is structurally missing.
    ///
    /// Protocol-path code (e.g. the server's DATA handler) uses this form
    /// so a half-built transaction surfaces as an SMTP error, not a panic.
    pub fn try_build(self) -> Result<Envelope, EnvelopeError> {
        let client_ip = self.client_ip.ok_or(EnvelopeError::MissingClientIp)?;
        let mail_from = self.mail_from.ok_or(EnvelopeError::MissingMailFrom)?;
        if self.recipients.is_empty() {
            return Err(EnvelopeError::NoRecipients);
        }
        Ok(Envelope { client_ip, helo: self.helo, mail_from, recipients: self.recipients })
    }

    /// Finishes the envelope.
    ///
    /// # Panics
    ///
    /// Panics if the client IP, sender, or all recipients are missing; use
    /// [`EnvelopeBuilder::try_build`] where that must not happen.
    pub fn build(self) -> Envelope {
        match self.try_build() {
            Ok(envelope) => envelope,
            Err(e) => panic!("invalid envelope: {e}"),
        }
    }
}

/// A structurally incomplete [`Envelope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// No client IP was provided.
    MissingClientIp,
    /// No MAIL FROM reverse-path was provided.
    MissingMailFrom,
    /// No RCPT TO recipient was provided.
    NoRecipients,
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::MissingClientIp => write!(f, "envelope needs a client IP"),
            EnvelopeError::MissingMailFrom => write!(f, "envelope needs a MAIL FROM"),
            EnvelopeError::NoRecipients => write!(f, "envelope needs at least one recipient"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> EmailAddress {
        s.parse().unwrap()
    }

    #[test]
    fn builder_happy_path() {
        let env = Envelope::builder()
            .client_ip(Ipv4Addr::new(1, 2, 3, 4))
            .helo("client.example")
            .mail_from(addr("a@b.cc"))
            .rcpt(addr("x@y.zz"))
            .rcpt(addr("w@y.zz"))
            .build();
        assert_eq!(env.client_ip(), Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(env.helo(), "client.example");
        assert_eq!(env.mail_from().normalized(), "a@b.cc");
        assert_eq!(env.recipients().len(), 2);
    }

    #[test]
    fn null_sender_bounce_envelope() {
        let env = Envelope::builder()
            .client_ip(Ipv4Addr::LOCALHOST)
            .mail_from(ReversePath::Null)
            .rcpt(addr("x@y.zz"))
            .build();
        assert_eq!(env.mail_from(), &ReversePath::Null);
    }

    #[test]
    #[should_panic(expected = "client IP")]
    fn missing_ip_panics() {
        let _ = Envelope::builder().mail_from(addr("a@b.cc")).rcpt(addr("x@y.zz")).build();
    }

    #[test]
    #[should_panic(expected = "recipient")]
    fn missing_rcpt_panics() {
        let _ =
            Envelope::builder().client_ip(Ipv4Addr::LOCALHOST).mail_from(addr("a@b.cc")).build();
    }

    #[test]
    fn display_shows_triplet_fields() {
        let env = Envelope::builder()
            .client_ip(Ipv4Addr::new(9, 8, 7, 6))
            .mail_from(addr("a@b.cc"))
            .rcpt(addr("x@y.zz"))
            .build();
        let s = env.to_string();
        assert!(s.contains("9.8.7.6") && s.contains("a@b.cc") && s.contains("x@y.zz"));
    }
}
