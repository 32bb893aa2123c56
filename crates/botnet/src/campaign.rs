//! Spam campaigns: the jobs a botmaster hands to its bots.

use spamward_sim::DetRng;
use spamward_smtp::{EmailAddress, Message, ReversePath};

/// One spam job: a single message to a list of victims.
///
/// Greylisting's one-spam-task control (§V-A) depends on the message being
/// *identical* across recipients and across retries; campaigns therefore
/// carry exactly one [`Message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// The (spoofed) envelope sender.
    pub sender: ReversePath,
    /// The victims, in delivery order.
    pub recipients: Vec<EmailAddress>,
    /// The one message of this spam task.
    pub message: Message,
}

impl Campaign {
    /// Starts building a campaign.
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::default()
    }

    /// A ready-made pharmacy-spam campaign against `n` victims at
    /// `victim_domain`, deterministically derived from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn synthetic(victim_domain: &str, n: usize, rng: &mut DetRng) -> Campaign {
        assert!(n > 0, "campaign needs at least one recipient");
        let sender_id = rng.below(1_000_000);
        let sender: EmailAddress = format!("promo{sender_id}@pharma-deals.example")
            .parse()
            .expect("synthetic sender is valid");
        let recipients = (0..n)
            .map(|i| {
                format!("user{i:04}@{victim_domain}").parse().expect("synthetic recipient is valid")
            })
            .collect();
        let message = Message::builder()
            .header("From", sender.to_string())
            .header("Subject", "Best prices on meds !!!")
            .header("X-Mailer", "totally-legit-mailer 1.0")
            .body(&format!(
                "Click now: http://pharma-deals.example/?cid={:08x}",
                rng.below(u64::from(u32::MAX))
            ))
            .build();
        Campaign { sender: ReversePath::Address(sender), recipients, message }
    }

    /// Number of victims.
    pub fn len(&self) -> usize {
        self.recipients.len()
    }

    /// Whether the campaign has no victims (never true for built ones).
    pub fn is_empty(&self) -> bool {
        self.recipients.is_empty()
    }
}

/// Builder for [`Campaign`].
#[derive(Debug, Default)]
pub struct CampaignBuilder {
    sender: Option<ReversePath>,
    recipients: Vec<EmailAddress>,
    message: Option<Message>,
}

impl CampaignBuilder {
    /// Sets the envelope sender.
    pub fn sender(mut self, sender: impl Into<ReversePath>) -> Self {
        self.sender = Some(sender.into());
        self
    }

    /// Adds one victim.
    pub fn recipient(mut self, address: EmailAddress) -> Self {
        self.recipients.push(address);
        self
    }

    /// Adds many victims.
    pub fn recipients(mut self, addresses: impl IntoIterator<Item = EmailAddress>) -> Self {
        self.recipients.extend(addresses);
        self
    }

    /// Sets the message.
    pub fn message(mut self, message: Message) -> Self {
        self.message = Some(message);
        self
    }

    /// Finishes the campaign.
    ///
    /// # Panics
    ///
    /// Panics when sender, message, or all recipients are missing.
    pub fn build(self) -> Campaign {
        assert!(!self.recipients.is_empty(), "campaign needs at least one recipient");
        Campaign {
            sender: self.sender.expect("campaign needs a sender"),
            recipients: self.recipients,
            message: self.message.expect("campaign needs a message"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic_and_identical_message() {
        let mut r1 = DetRng::seed(5).fork("campaign");
        let mut r2 = DetRng::seed(5).fork("campaign");
        let a = Campaign::synthetic("foo.net", 10, &mut r1);
        let b = Campaign::synthetic("foo.net", 10, &mut r2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert_eq!(a.message.digest(), b.message.digest(), "one spam task = one message");
        assert!(a.recipients.iter().all(|r| r.domain() == "foo.net"));
    }

    #[test]
    fn different_seeds_differ() {
        let mut r1 = DetRng::seed(5).fork("campaign");
        let mut r2 = DetRng::seed(6).fork("campaign");
        let a = Campaign::synthetic("foo.net", 3, &mut r1);
        let b = Campaign::synthetic("foo.net", 3, &mut r2);
        assert_ne!(a.message.digest(), b.message.digest());
    }

    #[test]
    fn builder_happy_path() {
        let c = Campaign::builder()
            .sender("spam@bot.example".parse::<EmailAddress>().unwrap())
            .recipient("a@foo.net".parse().unwrap())
            .recipients(vec!["b@foo.net".parse().unwrap()])
            .message(Message::builder().body("x").build())
            .build();
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one recipient")]
    fn builder_requires_recipients() {
        let _ = Campaign::builder()
            .sender("spam@bot.example".parse::<EmailAddress>().unwrap())
            .message(Message::builder().body("x").build())
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one recipient")]
    fn synthetic_requires_recipients() {
        let mut rng = DetRng::seed(1);
        let _ = Campaign::synthetic("foo.net", 0, &mut rng);
    }
}
