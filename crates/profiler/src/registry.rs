//! The function registry: the tagging rules behind the paper's
//! "internal tool that tags each leaf function's category" (§2.2).
//!
//! Leaf functions are recognized by symbol name (e.g. `memcpy` →
//! Memory); call-trace roots carry functionality markers (e.g. a frame
//! under `svc::io::` buckets the trace into Secure+Insecure I/O). The
//! default registry covers representative symbols for every Table 2 and
//! Table 3 category.

use std::collections::HashMap;

use accelerometer_fleet::{FunctionalityCategory, LeafCategory, MemoryOp};

/// Maps symbol names to leaf categories and trace-root prefixes to
/// functionality categories.
#[derive(Debug, Clone)]
pub struct FunctionRegistry {
    leaves: HashMap<&'static str, LeafCategory>,
    functionality_prefixes: Vec<(&'static str, FunctionalityCategory)>,
}

impl FunctionRegistry {
    /// Builds the default registry with representative symbols for every
    /// category.
    #[must_use]
    pub fn with_defaults() -> Self {
        let mut leaves = HashMap::new();
        let mut add = |cat: LeafCategory, names: &[&'static str]| {
            for &n in names {
                leaves.insert(n, cat);
            }
        };
        add(
            LeafCategory::Memory,
            &["memcpy", "memmove", "memset", "memcmp", "malloc", "free", "operator new", "operator delete"],
        );
        add(
            LeafCategory::Kernel,
            &["__schedule", "tcp_sendmsg", "tcp_recvmsg", "epoll_wait", "handle_irq", "futex_wait", "page_fault", "copy_user_generic"],
        );
        add(LeafCategory::Hashing, &["sha256_block", "fnv1a", "crc32", "murmur_hash"]);
        add(
            LeafCategory::Synchronization,
            &["std::atomic::load", "pthread_mutex_lock", "compare_exchange", "spin_lock"],
        );
        add(
            LeafCategory::Zstd,
            &["ZSTD_compressBlock", "ZSTD_decompressBlock", "lz77_match", "huff_decode"],
        );
        add(LeafCategory::Math, &["mkl_sgemm", "avx_dot_product", "vexp", "cblas_sgemv"]);
        add(
            LeafCategory::Ssl,
            &["aes_encrypt_block", "EVP_EncryptUpdate", "tls_record_seal", "rsa_sign"],
        );
        add(
            LeafCategory::CLibraries,
            &["std::sort", "std::string::append", "std::unordered_map::find", "std::vector::push_back", "strcmp", "std::map::lower_bound"],
        );
        add(LeafCategory::Miscellaneous, &["unknown_leaf", "jit_stub"]);

        let functionality_prefixes = vec![
            ("svc::io::", FunctionalityCategory::SecureInsecureIo),
            ("svc::io_prep::", FunctionalityCategory::IoPrePostProcessing),
            ("svc::compress::", FunctionalityCategory::Compression),
            ("svc::serde::", FunctionalityCategory::Serialization),
            ("svc::features::", FunctionalityCategory::FeatureExtraction),
            ("svc::predict::", FunctionalityCategory::PredictionRanking),
            ("svc::app::", FunctionalityCategory::ApplicationLogic),
            ("svc::log::", FunctionalityCategory::Logging),
            ("svc::threads::", FunctionalityCategory::ThreadPoolManagement),
            ("svc::misc::", FunctionalityCategory::Miscellaneous),
        ];
        Self {
            leaves,
            functionality_prefixes,
        }
    }

    /// Tags a leaf symbol; unknown symbols fall into Miscellaneous, the
    /// way an "other assorted function types" bucket absorbs the tail.
    #[must_use]
    pub fn tag_leaf(&self, symbol: &str) -> LeafCategory {
        self.leaves
            .get(symbol)
            .copied()
            .unwrap_or(LeafCategory::Miscellaneous)
    }

    /// Buckets a call-trace root frame into a functionality category.
    /// Frames without a recognized marker fall into Miscellaneous.
    #[must_use]
    pub fn bucket_root(&self, root_frame: &str) -> FunctionalityCategory {
        self.functionality_prefixes
            .iter()
            .find(|(prefix, _)| root_frame.starts_with(prefix))
            .map_or(FunctionalityCategory::Miscellaneous, |(_, cat)| *cat)
    }

    /// Representative leaf symbols for a category, sorted.
    ///
    /// Walks the whole symbol map, so the trace generator calls it only
    /// when it is built, never per sample.
    #[must_use]
    pub fn leaf_symbols(&self, category: LeafCategory) -> Vec<&'static str> {
        let mut symbols: Vec<&'static str> = self
            .leaves
            .iter()
            .filter(|(_, c)| **c == category)
            .map(|(s, _)| *s)
            .collect();
        symbols.sort_unstable();
        symbols
    }

    /// Classifies a memory-leaf symbol into its Fig. 3 operation, or
    /// `None` for non-memory symbols.
    #[must_use]
    pub fn tag_memory_op(&self, symbol: &str) -> Option<MemoryOp> {
        match symbol {
            "memcpy" => Some(MemoryOp::Copy),
            "memmove" => Some(MemoryOp::Move),
            "memset" => Some(MemoryOp::Set),
            "memcmp" => Some(MemoryOp::Compare),
            "malloc" | "operator new" => Some(MemoryOp::Allocation),
            "free" | "operator delete" => Some(MemoryOp::Free),
            _ => None,
        }
    }

    /// Representative symbols for a memory operation, sorted (the trace
    /// generator uses them to honor a service's Fig. 3 mix).
    ///
    /// Walks the whole symbol map, so the trace generator calls it only
    /// when it is built, never per sample.
    #[must_use]
    pub fn memory_symbols(&self, op: MemoryOp) -> Vec<&'static str> {
        let mut symbols: Vec<&'static str> = self
            .leaves
            .keys()
            .copied()
            .filter(|s| self.tag_memory_op(s) == Some(op))
            .collect();
        symbols.sort_unstable();
        symbols
    }

    /// The root-frame marker prefix for a functionality category.
    #[must_use]
    pub fn root_prefix(&self, category: FunctionalityCategory) -> &'static str {
        self.functionality_prefixes
            .iter()
            .find(|(_, c)| *c == category)
            .map(|(p, _)| *p)
            .expect("every functionality category has a prefix")
    }
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_known_leaves() {
        let r = FunctionRegistry::with_defaults();
        assert_eq!(r.tag_leaf("memcpy"), LeafCategory::Memory);
        assert_eq!(r.tag_leaf("__schedule"), LeafCategory::Kernel);
        assert_eq!(r.tag_leaf("aes_encrypt_block"), LeafCategory::Ssl);
        assert_eq!(r.tag_leaf("ZSTD_compressBlock"), LeafCategory::Zstd);
        assert_eq!(r.tag_leaf("std::sort"), LeafCategory::CLibraries);
        assert_eq!(r.tag_leaf("mkl_sgemm"), LeafCategory::Math);
        assert_eq!(r.tag_leaf("spin_lock"), LeafCategory::Synchronization);
        assert_eq!(r.tag_leaf("sha256_block"), LeafCategory::Hashing);
    }

    #[test]
    fn unknown_leaves_fall_to_miscellaneous() {
        let r = FunctionRegistry::with_defaults();
        assert_eq!(r.tag_leaf("totally_unknown_fn"), LeafCategory::Miscellaneous);
        assert_eq!(r.tag_leaf(""), LeafCategory::Miscellaneous);
    }

    #[test]
    fn buckets_roots_by_prefix() {
        let r = FunctionRegistry::with_defaults();
        assert_eq!(
            r.bucket_root("svc::io::secure_send"),
            FunctionalityCategory::SecureInsecureIo
        );
        assert_eq!(
            r.bucket_root("svc::predict::rank_stories"),
            FunctionalityCategory::PredictionRanking
        );
        assert_eq!(
            r.bucket_root("main"),
            FunctionalityCategory::Miscellaneous
        );
    }

    #[test]
    fn every_leaf_category_has_symbols() {
        let r = FunctionRegistry::with_defaults();
        for &cat in LeafCategory::ALL {
            assert!(
                !r.leaf_symbols(cat).is_empty(),
                "no symbols for {cat:?}"
            );
        }
    }

    #[test]
    fn every_functionality_has_a_prefix() {
        let r = FunctionRegistry::with_defaults();
        for &cat in FunctionalityCategory::ALL {
            let prefix = r.root_prefix(cat);
            assert_eq!(r.bucket_root(&format!("{prefix}anything")), cat);
        }
    }

    #[test]
    fn memory_ops_are_tagged() {
        let r = FunctionRegistry::with_defaults();
        assert_eq!(r.tag_memory_op("memcpy"), Some(MemoryOp::Copy));
        assert_eq!(r.tag_memory_op("free"), Some(MemoryOp::Free));
        assert_eq!(r.tag_memory_op("operator new"), Some(MemoryOp::Allocation));
        assert_eq!(r.tag_memory_op("std::sort"), None);
        // Every memory op has at least one symbol, and each symbol also
        // tags as a Memory leaf.
        for &op in MemoryOp::ALL {
            let symbols = r.memory_symbols(op);
            assert!(!symbols.is_empty(), "{op:?}");
            for symbol in symbols {
                assert_eq!(r.tag_leaf(symbol), LeafCategory::Memory, "{symbol}");
            }
        }
    }

    #[test]
    fn leaf_symbols_round_trip_through_tagging() {
        let r = FunctionRegistry::with_defaults();
        for &cat in LeafCategory::ALL {
            for symbol in r.leaf_symbols(cat) {
                assert_eq!(r.tag_leaf(symbol), cat, "{symbol}");
            }
        }
    }
}
