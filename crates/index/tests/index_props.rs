//! Property-based tests of the index substrate: the builder must produce
//! posting lists that exactly invert the documents, for any corpus.

use griffin_codec::Codec;
use griffin_index::{CompressedPostingList, IndexBuilder, Posting};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Small random corpora: each document is a list of small word ids.
fn corpora() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(0u8..40, 1..30), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builder_inverts_documents_exactly(docs in corpora(),
                                         codec_idx in 0usize..3) {
        let codec = [Codec::PforDelta, Codec::EliasFano, Codec::Varint][codec_idx];
        let mut builder = IndexBuilder::new(codec);
        // Reference inverted index with term frequencies.
        let mut reference: BTreeMap<String, Vec<(u32, u32)>> = BTreeMap::new();
        for (docid, words) in docs.iter().enumerate() {
            let tokens: Vec<String> = words.iter().map(|w| format!("w{w}")).collect();
            let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
            builder.add_document(&refs);
            let mut tf: BTreeMap<&str, u32> = BTreeMap::new();
            for t in &refs {
                *tf.entry(t).or_insert(0) += 1;
            }
            for (t, f) in tf {
                reference.entry(t.to_string()).or_default().push((docid as u32, f));
            }
        }
        let idx = builder.build();
        prop_assert_eq!(idx.num_terms(), reference.len());
        for (term, postings) in &reference {
            let tid = idx.lookup(term).expect("term present");
            let (ids, tfs) = idx.list(tid).decompress();
            let expect_ids: Vec<u32> = postings.iter().map(|&(d, _)| d).collect();
            let expect_tfs: Vec<u32> = postings.iter().map(|&(_, f)| f).collect();
            prop_assert_eq!(&ids, &expect_ids, "docids of {}", term);
            prop_assert_eq!(&tfs, &expect_tfs, "tfs of {}", term);
            prop_assert_eq!(idx.doc_freq(tid), postings.len());
        }
        // Corpus metadata.
        prop_assert_eq!(idx.num_docs() as usize, docs.len());
        for (docid, words) in docs.iter().enumerate() {
            prop_assert_eq!(idx.meta().doc_len(docid as u32), Some(words.len() as u32));
        }
    }

    #[test]
    fn posting_list_block_alignment(n in 1usize..700, codec_idx in 0usize..3) {
        let codec = [Codec::PforDelta, Codec::EliasFano, Codec::Varint][codec_idx];
        let postings: Vec<Posting> = (0..n as u32)
            .map(|i| Posting { docid: i * 3 + 1, tf: i % 250 + 1 })
            .collect();
        let list = CompressedPostingList::compress(&postings, codec, 128);
        // Per-block decode concatenates to the full list.
        let mut ids = Vec::new();
        let mut tfs = Vec::new();
        for b in 0..list.num_blocks() {
            list.decode_block_into(b, &mut ids, &mut tfs);
        }
        prop_assert_eq!(ids.len(), n);
        for (i, p) in postings.iter().enumerate() {
            prop_assert_eq!(ids[i], p.docid);
            prop_assert_eq!(tfs[i], p.tf);
        }
    }

    #[test]
    fn dictionary_is_stable_under_reinsertion(words in vec("[a-z]{1,6}", 1..80)) {
        let mut d = griffin_index::Dictionary::new();
        let first: Vec<_> = words.iter().map(|w| d.intern(w)).collect();
        let second: Vec<_> = words.iter().map(|w| d.intern(w)).collect();
        prop_assert_eq!(&first, &second);
        let unique: BTreeSet<&String> = words.iter().collect();
        prop_assert_eq!(d.len(), unique.len());
        for w in &words {
            let id = d.lookup(w).expect("interned");
            prop_assert_eq!(d.term(id), w.as_str());
        }
    }
}
