//! Metric names and collectors for the webmail crate.
//!
//! All `webmail.*` registry names live here (the O1 lint rule). A provider
//! experiment drives a [`SendingMta`] built from a [`WebmailProvider`]
//! profile; collection reads the sender's recorded attempt history, keyed
//! per provider — the raw material of Table III.

use crate::provider::WebmailProvider;
use spamward_mta::SendingMta;
use spamward_obs::Registry;

/// Providers measured in this run.
pub const PROVIDERS: &str = "webmail.providers";
/// Delivery attempts across all providers.
pub const ATTEMPTS: &str = "webmail.attempts";
/// Messages delivered across all providers.
pub const DELIVERED: &str = "webmail.delivered";
/// Name prefix for per-provider attempt counters.
pub const PREFIX_PROVIDER: &str = "webmail.provider";

/// Canonical metric-name segment for a provider: lowercase alphanumerics,
/// runs of anything else collapsed to `_` ("mail.ru" → `mail_ru`).
pub fn provider_slug(provider: &WebmailProvider) -> String {
    let mut slug = String::new();
    for c in provider.name.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.ends_with('_') && !slug.is_empty() {
            slug.push('_');
        }
    }
    slug.trim_end_matches('_').to_owned()
}

/// Exports one provider's finished run:
/// `webmail.provider.<slug>.attempts` / `.delivered` / `.distinct_ips`,
/// plus the cross-provider totals.
pub fn collect_provider(provider: &WebmailProvider, sender: &SendingMta, reg: &mut Registry) {
    let slug = provider_slug(provider);
    let attempts = sender.records().len() as u64;
    let delivered = sender.records().iter().filter(|r| r.delivered).count() as u64;
    reg.record_counter(PROVIDERS, 1);
    reg.record_counter(ATTEMPTS, attempts);
    reg.record_counter(DELIVERED, delivered);
    reg.record_counter(format!("{PREFIX_PROVIDER}.{slug}.attempts"), attempts);
    reg.record_counter(format!("{PREFIX_PROVIDER}.{slug}.delivered"), delivered);
    reg.record_counter(
        format!("{PREFIX_PROVIDER}.{slug}.distinct_ips"),
        provider.distinct_ips as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_slugs_are_name_safe() {
        assert_eq!(provider_slug(&WebmailProvider::mail_ru()), "mail_ru");
        assert_eq!(provider_slug(&WebmailProvider::gmail()), "gmail_com");
    }

    #[test]
    fn collect_reads_the_sender_history() {
        let provider = WebmailProvider::gmail();
        let sender = provider.build_sender(std::net::Ipv4Addr::new(198, 51, 100, 1), 9);
        let mut reg = Registry::new();
        collect_provider(&provider, &sender, &mut reg);
        assert_eq!(reg.counter(PROVIDERS), Some(1));
        assert_eq!(reg.counter(ATTEMPTS), Some(0), "no campaign has run yet");
        assert_eq!(
            reg.counter("webmail.provider.gmail_com.distinct_ips"),
            Some(provider.distinct_ips as u64)
        );
    }
}
